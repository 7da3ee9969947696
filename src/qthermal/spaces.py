"""Binary image spaces and their Hamming-distance spectra.

An m-pixel binary image space holds the patterns whose target count lies in
a set ks: one count is a k-CPF space, every count 0..m the uniform space of
all 2^m patterns, any other set a k-BCPF space.  The discrimination bounds
all reduce to sums S(f) of f^hamming over ordered unequal pattern pairs, so
a space is described once by its distance spectrum: log N_d, the log count
of such pairs at Hamming distance d = 1..m.  Every sum is then one call of
the one primitive for image-space sums, :func:`log_hamming_sum`, a
log-sum-exp of log N_d + d log f over m terms.

The spectrum is built by splitting each pair's distance d = a + b into the a
ones of x that flip and the b zeros of x that flip, which makes each
contribution a multinomial coefficient.  A uniform space has the closed form
N_d = 2^m C(m, d) at O(m) cost; any other space with target counts ks costs
O(|ks|^2 * max(ks)) array work, about 10 ms at m = 784 and 50 counts.  The
spectrum is cached per (frozen, hashable) space, so repeated bounds on one
space pay it once.  All arithmetic is in the log domain, so pixel counts up
to ~10^4 do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")
LN2 = math.log(2.0)


@lru_cache(maxsize=256)
def log_factorials(m: int) -> np.ndarray:
    """Read-only log n! for n = 0..m from ``math.lgamma``; cached per m."""
    out = np.array([math.lgamma(n + 1.0) for n in range(m + 1)])
    out.setflags(write=False)
    return out


def log_binomial(n: int, k) -> np.ndarray:
    """log C(n, k) for integer k, elementwise; -inf outside 0 <= k <= n."""
    lf, k = log_factorials(n), np.asarray(k)
    j = np.clip(k, 0, n)
    return np.where(k == j, lf[n] - lf[j] - lf[n - j], NEG_INF)


def log_sum_exp(values: np.ndarray) -> float:
    """log of sum exp(values), shifted by the maximum; -inf if all are -inf."""
    top = values.max()
    if top == NEG_INF:
        return NEG_INF
    return float(top + np.log(np.exp(values - top).sum()))


def log_pow(f: float, exponent: float = 1.0) -> float:
    """log(f^exponent) for a fidelity f: -inf at f = 0 and 0 at f = 1.  The
    package's one fidelity range check: f outside [0, 1] or NaN raises."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    if f == 0.0:
        return NEG_INF
    if f == 1.0:
        return 0.0
    return exponent * math.log(f)


@dataclass(frozen=True)
class ImageSpace:
    """The m-pixel binary patterns whose target count lies in ``ks``.

    ``ks`` is a strictly increasing tuple inside [0, m]: one count is a
    k-CPF space, every count 0..m the uniform space, and any other set a
    k-BCPF space, so ``cpf(m, k) == bcpf(m, [k])``.
    """

    m: int
    ks: tuple[int, ...]

    def __post_init__(self):
        m, ks = self.m, self.ks
        if m < 1 or not ks or ks[0] < 0 or ks[-1] > m or any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError(
                f"need m >= 1 and distinct, increasing target counts in [0, m], got m = {m}, ks = {ks}"
            )

    @property
    def kind(self) -> str:
        """uniform for every count 0..m, cpf for one count, else bcpf."""
        if len(self.ks) == self.m + 1:
            return "uniform"
        return "cpf" if len(self.ks) == 1 else "bcpf"

    @classmethod
    def uniform(cls, m: int) -> "ImageSpace":
        return cls(m, tuple(range(m + 1)))

    @classmethod
    def cpf(cls, m: int, k: int) -> "ImageSpace":
        return cls(m, (int(k),))

    @classmethod
    def bcpf(cls, m: int, ks) -> "ImageSpace":
        return cls(m, tuple(sorted(int(k) for k in ks)))

    def log_pattern_count(self) -> float:
        """log of the number of patterns in the space."""
        if self.kind == "uniform":
            return self.m * LN2
        return log_sum_exp(log_binomial(self.m, self.ks))


def log_pair_counts(m: int, ks, ls) -> np.ndarray:
    """log N_d for d = 1..m: the number of ordered pattern pairs (x, y) with
    x != y, |x| in ``ks`` and |y| in ``ls`` at Hamming distance d.

    A pair splits the m pixels into a flipped ones of x, k - a kept ones,
    b = a + l - k flipped zeros and m - k - b kept zeros, so it contributes
    the multinomial m! / (a! (k-a)! b! (m-k-b)!) = C(m,k) C(k,a) C(m-k,b) at
    distance d = a + b.
    """
    lf = log_factorials(m)
    ls = np.asarray(ls)
    out = np.full(m + 1, NEG_INF)
    for k in ks:
        a = np.arange(k + 1)
        b = a + (ls - k)[:, None]
        ok = (b >= 0) & (b <= m - k) & (a + b > 0)
        a, b = np.broadcast_to(a, b.shape)[ok], b[ok]
        terms = lf[m] - lf[a] - lf[k - a] - lf[b] - lf[m - k - b]
        out = np.logaddexp(out, _grouped_logsumexp(a + b, terms, m + 1))
    return out[1:]


def _grouped_logsumexp(groups: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """log sum of exp(values) per group index in 0..n-1; -inf for empty groups."""
    top = np.full(n, NEG_INF)
    np.maximum.at(top, groups, values)
    sums = np.bincount(groups, weights=np.exp(values - top[groups]), minlength=n)
    with np.errstate(divide="ignore"):
        return top + np.log(sums)


@lru_cache(maxsize=256)
def log_distance_counts(space: ImageSpace) -> np.ndarray:
    """Read-only log N_d, d = 1..m, over ordered unequal pattern pairs of
    ``space``; cached per space.  Uniform spaces use N_d = 2^m C(m, d)."""
    if space.kind == "uniform":
        out = space.m * LN2 + log_binomial(space.m, np.arange(1, space.m + 1))
    else:
        out = log_pair_counts(space.m, space.ks, space.ks)
    out.setflags(write=False)
    return out


def log_hamming_sum(log_counts: np.ndarray, log_f: float) -> float:
    """log of sum_d N_d f^d over d = 1..m from ``log_counts`` = log N_d, the
    package's one primitive for image-space sums; ``log_f`` = log f may be
    -inf (f = 0), 0 (f = 1) or so negative that f^d is 0."""
    with np.errstate(over="ignore"):  # log_f * d saturates to -inf
        return log_sum_exp(log_counts + log_f * np.arange(1, len(log_counts) + 1))


def bcpf_functional(space: ImageSpace, f: float) -> float:
    """Unnormalised sum of f^hamming over ordered unequal pattern pairs of
    ``space``, inf past double range: the exponential of the one primitive.
    No command calls it; it stays for the ``spaces.bcpf_functional_ms``
    microbenchmark, until that case times ``log_hamming_sum`` directly."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_hamming_sum(log_distance_counts(space), log_pow(f))))
