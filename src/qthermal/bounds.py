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

import numpy as np

from .spaces import LN2, ImageSpace, log_distance_counts, log_hamming_sum, log_pow


@dataclass(frozen=True)
class BoundReport:
    """Bounds and advantage metrics for one (space, fidelity) configuration,
    at one M (float fields) or along an M grid (float64 arrays).

    ``q_lower``/``q_upper`` sandwich the optimal quantum-assisted error
    probability and ``cl_lower`` bounds the optimal classical strategy from
    below.  Derived from them: ``mga = cl_lower - q_upper``, the minimum
    guaranteed advantage, and ``mpa = cl_lower - q_lower``, the maximum
    potential advantage.
    """

    q_lower: float | np.ndarray
    q_upper: float | np.ndarray
    cl_lower: float | np.ndarray

    @property
    def mga(self) -> float | np.ndarray:
        return self.cl_lower - self.q_upper

    @property
    def mpa(self) -> float | np.ndarray:
        return self.cl_lower - self.q_lower


def check_copies(Ms) -> None:
    """Raise ``ValueError`` naming the first probe copy number below 1."""
    bad = next((v for v in Ms if v < 1), None)
    if bad is not None:
        raise ValueError(f"probe copy number must be >= 1, got {bad}")


def bounds(space: ImageSpace, M, F_q: float, F_cl: float) -> BoundReport:
    """Error-probability bounds for discriminating patterns of ``space`` with
    M probe copies per pixel.

    Args:
        space: image space (uniform, k-CPF or k-BCPF).
        M: probe copies per pixel, >= 1: an int, or a 1-D integer sequence
            whose every entry gets the numbers the int would.
        F_q: single-pixel Choi-state fidelity of the quantum strategy.
        F_cl: single-pixel output fidelity of the vacuum-probe strategy.

    Returns:
        ``BoundReport`` with all probabilities in [0, 1], floats for an int M
        and float64 arrays along a sequence.  M < 1 or a fidelity outside
        [0, 1] raises ``ValueError``; F_q > F_cl only warns, once per call.
    """
    scalar = np.ndim(M) == 0
    Ms = [M] if scalar else list(M)
    check_copies(Ms)
    log_fq, log_fcl = log_pow(F_q), log_pow(F_cl)  # validated before the warning
    if F_q > F_cl:
        warnings.warn(
            f"expected 0 <= F_q <= F_cl <= 1, got F_q={F_q}, F_cl={F_cl}",
            stacklevel=2,
        )
    # every bound is S(f) = sum over ordered unequal pattern pairs of
    # f^hamming, read off the space's cached distance spectrum, one
    # log-sum per M; the scalar tails stay in math, as np.exp rounds
    # differently from math.exp
    log_counts = log_distance_counts(space)
    log_size = space.log_pattern_count()
    Ms = np.array([float(v) for v in Ms])  # not int64: M may reach 1e308
    with np.errstate(over="ignore"):  # M log F and 2 M log F saturate to -inf
        log_fm = Ms * log_fq
        log_f2m, log_f2m_cl = 2.0 * log_fm, 2.0 * (Ms * log_fcl)

    def lower(log_f: np.ndarray) -> list[float]:  # S(F^2M) / (2 |S|^2)
        sums = log_hamming_sum(log_counts, log_f).tolist()  # 0 at f = 1 for any M
        return [math.exp(s - 2.0 * log_size - LN2) for s in sums]

    # min(1, S(F^M) / |S|), exponentiated only where it cannot overflow
    sums = log_hamming_sum(log_counts, log_fm).tolist()
    q_upper = [math.exp(min(s - log_size, 0.0)) for s in sums]
    if space.kind == "uniform":
        # local Helstrom bound of pixel-by-pixel measurement: 1 - (1 - F^M/2)^m
        q_upper = [
            min(q, -math.expm1(space.m * math.log1p(-0.5 * math.exp(lfm))))
            for q, lfm in zip(q_upper, log_fm.tolist())
        ]
    fields = lower(log_f2m), q_upper, lower(log_f2m_cl)
    if scalar:
        return BoundReport(*(f[0] for f in fields))
    return BoundReport(*(np.array(f) for f in fields))


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


def pixel_error_bounds(F: float, M: int) -> tuple[float, float]:
    """Single-pixel misclassification bounds for M probe copies:

        (1 - sqrt(1 - F^(2M))) / 2  <=  p  <=  F^M / 2.
    """
    check_copies([M])
    # 1 - sqrt(1-x) = x / (1 + sqrt(1-x)) avoids cancellation at small x
    x = math.exp(log_pow(F, 2.0 * M))
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x)), 0.5 * math.exp(log_pow(F, float(M)))
