"""Binary image spaces and their Hamming-distance spectra.

An m-pixel binary image space holds the patterns whose target count lies in
a set ks: one count is a k-CPF space, every count 0..m the uniform space of
all 2^m patterns, any other set a k-BCPF space.  The discrimination bounds
all reduce to sums S(f) of f^hamming over ordered unequal pattern pairs, so
a space is described once by its distance spectrum: log N_d, the log count
of such pairs at Hamming distance d = 1..m.  Every sum is then one call of
the one primitive for image-space sums, :func:`log_hamming_sum`, a
log-sum-exp of log N_d + d log f over m terms.

A pair (x, y) at distance d flips a ones and b zeros of x and keeps u ones
and v zeros; its count m! / (a! b! u! v!) regroups as C(m, d) C(d, a)
C(m - d, u), which separates in t = |x| - |y| and s = |x| + |y|.  A uniform
space has the closed form N_d = 2^m C(m, d) at O(m) cost; any other costs
O(m (|T| + |S|)) array work over the distinct t and s, plus one product with
their 0/1 incidence per parity of d: ~1 ms at m = 784 for 50 counts, ~8 ms
for 200 and ~0.1 s for 784.  The spectrum is built per call; each command
builds it once.  Sums are taken in logs or over shifted exponentials, so
pixel counts up to ~10^4 do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")
LN2 = math.log(2.0)
_BLOCK = 128 * 784  # doubles per temporary of image-space sums


@lru_cache(maxsize=256)
def log_factorials(m: int) -> np.ndarray:
    """Read-only log n! for n = 0..m from ``math.lgamma``; cached per m."""
    out = np.array([math.lgamma(n + 1.0) for n in range(m + 1)])
    out.setflags(write=False)
    return out


def log_binomial(n, k, lf=None) -> np.ndarray:
    """log C(n, k) elementwise; -inf outside 0 <= k <= n.  ``lf`` = log n! up to max n."""
    lf, k = log_factorials(n) if lf is None else lf, np.asarray(k)
    j = np.clip(k, 0, n)
    return np.where(k == j, lf[n] - lf[j] - lf[n - j], NEG_INF)


def log_sum_exp(values: np.ndarray):
    """log of sum exp(values) over the last axis, shifted by each row's
    maximum; -inf for a row of -inf only.  A float for 1-D ``values``."""
    top = values.max(axis=-1, keepdims=True)
    top[top == NEG_INF] = 0.0  # exp(-inf - 0) = 0 sums to 0, whose log is -inf
    terms = values - top
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        out = top[..., 0] + np.log(terms.sum(axis=-1))
    return out if out.ndim else float(out)


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

    N_d = C(m, d) sum C(d, (d + t)/2) C(m - d, (s - d)/2) over (t, s) = (k - l, k + l)
    in ks x ls.  Per parity of d, row blocks P and Q of these, shifted by their
    maxima, give sum_t P (Q H^T), H the 0/1 (t, s) incidence.  A pair scales to at
    least 2^-m, so only past m = 900 can a row fall below 2^-900: it is summed in logs.
    """
    lf, ks, ls = log_factorials(m), np.asarray(ks), np.asarray(ls)
    blocks = lambda a, width: np.array_split(a, max(1, -(-len(a) * width // _BLOCK)))  # ~_BLOCK doubles each
    kin, lin = (np.bincount(v + m, minlength=3 * m + 1).astype(float) for v in (ks, ls))  # offset by m
    diffs, sums, out = np.zeros(2 * m + 1, bool), np.zeros(2 * m + 1, bool), np.full(m + 1, NEG_INF)
    for k in blocks(ks[:, None], len(ls)):
        diffs[k - ls + m] = sums[k + ls] = True
    t_all, s_all = np.flatnonzero(diffs) - m, np.flatnonzero(sums)
    for parity in sorted(set((t_all % 2).tolist())):
        t, s = t_all[t_all % 2 == parity], s_all[s_all % 2 == parity]
        H = lambda c: kin[(s + t[c, None]) // 2 + m] * lin[(s - t[c, None]) // 2 + m]
        chunks = blocks(np.arange(len(t)), len(s))
        # rows past [min |t|, max min(s, 2m - s)] have no pair; inside, P and Q rows are finite
        lo, hi = max(abs(t).min(), 2 - parity), np.minimum(s, 2 * m - s).max()
        for d in blocks(np.arange(lo, hi + 1, 2)[:, None], max(len(t), len(s))):
            lp, lq = log_binomial(d, (d + t) // 2, lf), log_binomial(m - d, (s - d) // 2, lf)
            p0, q0 = lp.max(axis=1, keepdims=True), lq.max(axis=1, keepdims=True)
            P, Q = np.exp(lp - p0), np.exp(lq - q0)
            total = sum((P[:, c] * (Q @ H(c).T)).sum(axis=1) for c in chunks)
            with np.errstate(divide="ignore"):
                acc = log_binomial(m, d[:, 0], lf) + p0[:, 0] + q0[:, 0] + np.log(total)
            redo = np.flatnonzero(total < 2.0**-900) if m > 900 else []
            acc[redo] = NEG_INF
            for c in chunks if len(redo) else ():
                ti, si = np.nonzero(H(c))  # every t has a pair
                for r in blocks(redo[:, None], len(ti)):
                    pairs = log_binomial(m, d[r, 0], lf) + lp[r, c[ti]] + lq[r, si]
                    acc[r[:, 0]] = np.logaddexp(acc[r[:, 0]], log_sum_exp(pairs))
            out[d[:, 0]] = acc
    return out[1:]


def log_distance_counts(space: ImageSpace) -> np.ndarray:
    """log N_d, d = 1..m, over ordered unequal pattern pairs of ``space``,
    built per call; each command builds it once.  Uniform spaces use
    N_d = 2^m C(m, d)."""
    if space.kind == "uniform":
        return space.m * LN2 + log_binomial(space.m, np.arange(1, space.m + 1))
    return log_pair_counts(space.m, space.ks, space.ks)


def log_hamming_sum(log_counts: np.ndarray, log_f):
    """log of sum_d N_d f^d over d = 1..m from ``log_counts`` = log N_d, the
    package's one primitive for image-space sums; ``log_f`` = log f may be
    -inf (f = 0), 0 (f = 1) or so negative that f^d is 0.

    A 1-D array of log f gives one log-sum per entry, each bit-identical to
    the scalar call: the (entries, m) terms are summed in ``_BLOCK``-double
    blocks (128 entries at m = 784), at most 0.8 MB per temporary at any m.
    """
    log_f = np.asarray(log_f, dtype=float)
    rows = log_f.reshape(-1, 1)
    d = np.arange(1.0, len(log_counts) + 1)
    out, step = np.empty(len(rows)), max(1, _BLOCK // len(d))
    for i in range(0, len(rows), step):
        with np.errstate(over="ignore"):  # log_f * d saturates to -inf
            terms = rows[i:i + step] * d
        terms += log_counts
        out[i:i + step] = log_sum_exp(terms)
    return out.reshape(log_f.shape) if log_f.ndim else float(out[0])


def bcpf_functional(space: ImageSpace, f: float) -> float:
    """Unnormalised sum of f^hamming over ordered unequal pattern pairs of
    ``space``, inf past double range: the exponential of the one primitive.
    No command calls it; it stays for the ``spaces.bcpf_functional_ms``
    microbenchmark, until that case times ``log_hamming_sum`` directly."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_hamming_sum(log_distance_counts(space), log_pow(f))))
