"""Error-probability bounds for multi-pixel channel discrimination.

Given the single-pixel output fidelities of the quantum (entangled-probe)
and classical (vacuum-probe) strategies, these functions bound the optimal
misclassification probability over an image space, and quantify the
guaranteed and potential advantage of the quantum strategy.  All
probability arithmetic runs in log space: F^(2M) underflows double
precision long before the bounds become uninteresting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .spaces import LN2, ImageSpace, log_distance_counts, log_hamming_sum, log_pow


@dataclass(frozen=True)
class BoundReport:
    """Bounds and advantage metrics for one (space, M, fidelity) configuration.

    ``q_lower``/``q_upper`` sandwich the optimal quantum-assisted error
    probability and ``cl_lower`` bounds the optimal classical strategy from
    below.  Derived from them: ``mga = cl_lower - q_upper``, the minimum
    guaranteed advantage, and ``mpa = cl_lower - q_lower``, the maximum
    potential advantage.
    """

    q_lower: float
    q_upper: float
    cl_lower: float

    @property
    def mga(self) -> float:
        return self.cl_lower - self.q_upper

    @property
    def mpa(self) -> float:
        return self.cl_lower - self.q_lower


def bounds(space: ImageSpace, M: int, F_q: float, F_cl: float) -> BoundReport:
    """Error-probability bounds for discriminating patterns of ``space`` with
    M probe copies per pixel.

    Args:
        space: image space (uniform, k-CPF or k-BCPF).
        M: probe copies per pixel, >= 1.
        F_q: single-pixel Choi-state fidelity of the quantum strategy.
        F_cl: single-pixel output fidelity of the vacuum-probe strategy.

    Returns:
        ``BoundReport`` with all probabilities in [0, 1].  M < 1 or a
        fidelity outside [0, 1] raises ``ValueError``; F_q > F_cl only warns.
    """
    if M < 1:
        raise ValueError(f"probe copy number must be >= 1, got {M}")
    log_fq, log_fcl = log_pow(F_q), log_pow(F_cl)  # validated before the warning
    if F_q > F_cl:
        warnings.warn(
            f"expected 0 <= F_q <= F_cl <= 1, got F_q={F_q}, F_cl={F_cl}",
            stacklevel=2,
        )
    # every bound is S(f) = sum over ordered unequal pattern pairs of
    # f^hamming, read off the space's cached distance spectrum
    log_counts = log_distance_counts(space)
    log_size = space.log_pattern_count()

    def lower(log_f: float) -> float:  # S(F^2M) / (2 |S|^2)
        log_sum = log_hamming_sum(log_counts, 2.0 * M * log_f)
        return math.exp(log_sum - 2.0 * log_size - LN2)

    log_fm = M * log_fq
    # min(1, S(F^M) / |S|), exponentiated only where it cannot overflow
    q_upper = math.exp(min(log_hamming_sum(log_counts, log_fm) - log_size, 0.0))
    if space.kind == "uniform":
        # local Helstrom bound of pixel-by-pixel measurement: 1 - (1 - F^M/2)^m
        q_upper = min(q_upper, -math.expm1(space.m * math.log1p(-0.5 * math.exp(log_fm))))
    return BoundReport(q_lower=lower(log_fq), q_upper=q_upper, cl_lower=lower(log_fcl))


def min_rel_probe_uniform(F_q: float, F_cl: float) -> float:
    """Minimum probe copies per pixel guaranteeing quantum advantage on
    uniform spaces: log 2 / (2 log F_cl - log F_q).

    The advantage condition F_cl^(2M) > 2^m F_q^M has a solution only when
    the denominator is positive; otherwise (F_q = F_cl = 1, or F_cl = 0)
    there is no crossing and infinity is returned; F_q = 0 < F_cl gives 0.
    A fidelity outside [0, 1] raises ``ValueError``.
    """
    # -inf at F_cl = 0, NaN at F_cl = F_q = 0 and +inf at F_q = 0 < F_cl
    denom = 2.0 * log_pow(F_cl) - log_pow(F_q)
    if not denom > 0.0:
        return math.inf
    return LN2 / denom


def min_rel_probe_additive(nu_t: float, nu_b: float) -> float:
    """Closed form of :func:`min_rel_probe_uniform` for an additive-noise
    pair, via the quantum and classical excess-noise gaps

        d_q  = (sqrt(nu_b) - sqrt(nu_t))^2 / (2 sqrt(nu_b nu_t)),
        d_cl = sqrt((nu_t+1)(nu_b+1)) - sqrt(nu_b nu_t) - 1,

    giving log 2 / (log(1 + d_q) - 2 log(1 + d_cl))."""
    if nu_t < 0 or nu_b < 0:
        raise ValueError("additive noise parameters must be non-negative")
    if nu_t == nu_b:
        return math.inf
    d_q = (math.sqrt(nu_b) - math.sqrt(nu_t)) ** 2 / (2.0 * math.sqrt(nu_b * nu_t))
    d_cl = math.sqrt((nu_t + 1.0) * (nu_b + 1.0)) - math.sqrt(nu_b * nu_t) - 1.0
    denom = math.log1p(d_q) - 2.0 * math.log1p(d_cl)
    if denom <= 0.0:
        return math.inf
    return LN2 / denom


def pixel_error_bounds(F: float, M: int) -> tuple[float, float]:
    """Single-pixel misclassification bounds for M probe copies:

        (1 - sqrt(1 - F^(2M))) / 2  <=  p  <=  F^M / 2.
    """
    if M < 1:
        raise ValueError(f"probe copy number must be >= 1, got {M}")
    # 1 - sqrt(1-x) = x / (1 + sqrt(1-x)) avoids cancellation at small x
    x = math.exp(log_pow(F, 2.0 * M))
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x)), 0.5 * math.exp(log_pow(F, float(M)))
