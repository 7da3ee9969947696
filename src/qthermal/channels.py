"""Gaussian phase-insensitive channels and their probe-state fidelities.

A channel is parameterised by transmissivity/gain tau and induced noise nu
(shot-noise units).  Background/target pairs share the same tau and differ
only in noise, so every fidelity here reduces to a function of the pair's
noise parameters.

All three fidelities come from one exact closed form in (tau, nu_t, nu_b, a),
the finite-energy Choi fidelity :func:`fidelity_finite`: the vacuum-probe
:func:`fidelity_classical` is its a = 1/2 value and the infinitely squeezed
:func:`fidelity_choi_inf` its a -> infinity limit.  None of them builds a
covariance matrix or imports mpmath.  :func:`choi_cm`,
:func:`fidelity_choi_inf_extrapolated` (60 digits) and the 50-digit
covariance-matrix fidelity of :mod:`qthermal.gaussian` stay public as
independent references, against which the test suite checks the closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationWarning, NonPhysicalChannelError
from .gaussian import MP_LOCK, CovarianceMatrix, _fidelity_mp

_h_planck = 6.62607015e-34  # J s, exact in the SI
_c_light = 299792458.0  # m / s, exact in the SI
_k_boltzmann = 1.380649e-23  # J / K, exact in the SI

_CP_TOL = 1e-12

# squeezing values standing in for the a -> infinity limit; the two-point
# spread doubles as the convergence estimate
_ASYMPTOTIC_A = (1e13, 1e14)
_ASYMPTOTIC_SPREAD_TOL = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """Thermal-loss (0 <= tau < 1), additive-noise (tau = 1) or amplifier
    (tau > 1) channel with induced noise nu >= |1 - tau|/2."""

    tau: float
    nu: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or not np.isfinite(self.nu) or self.tau < 0:
            raise NonPhysicalChannelError(
                f"invalid channel parameters tau={self.tau}, nu={self.nu}"
            )
        floor = abs(1.0 - self.tau) / 2.0
        if self.nu < floor - _CP_TOL:
            raise NonPhysicalChannelError(
                f"induced noise {self.nu} below complete-positivity floor {floor}"
            )

    @property
    def kind(self) -> str:
        if self.tau == 1.0:
            return "additive"
        return "loss" if self.tau < 1.0 else "amplifier"

    @property
    def epsilon(self) -> float:
        """Environmental thermal parameter nu/|1-tau| = nbar + 1/2."""
        if self.tau == 1.0:
            raise ValueError("epsilon is undefined for additive channels (tau = 1)")
        return self.nu / abs(1.0 - self.tau)

    @property
    def env_nbar(self) -> float:
        return self.epsilon - 0.5

    @classmethod
    def additive(cls, nu: float) -> "ChannelSpec":
        return cls(1.0, nu)

    @classmethod
    def from_epsilon(cls, tau: float, epsilon: float) -> "ChannelSpec":
        if tau == 1.0:
            raise ValueError("additive channels are parameterised by nu directly")
        return cls(tau, epsilon * abs(1.0 - tau))


@dataclass(frozen=True)
class EnvironmentPair:
    """Background/target channels with identical transmissivities."""

    background: ChannelSpec
    target: ChannelSpec

    def __post_init__(self):
        if self.background.tau != self.target.tau:
            raise NonPhysicalChannelError(
                "background and target transmissivities must be identical, got "
                f"{self.background.tau} and {self.target.tau}"
            )

    @property
    def tau(self) -> float:
        return self.background.tau

    @property
    def kind(self) -> str:
        return self.background.kind

    @classmethod
    def additive(cls, nu_background: float, nu_target: float) -> "EnvironmentPair":
        return cls(ChannelSpec.additive(nu_background), ChannelSpec.additive(nu_target))

    @classmethod
    def thermal(cls, tau: float, eps_background: float, eps_target: float) -> "EnvironmentPair":
        return cls(
            ChannelSpec.from_epsilon(tau, eps_background),
            ChannelSpec.from_epsilon(tau, eps_target),
        )


def _choi_entries(a, tau, nu, sqrt) -> dict:
    """Upper-triangle entries {(i, j): value} of :func:`choi_cm`'s matrix, from
    floats (``sqrt=math.sqrt``) or mpmath numbers (``sqrt=mp.sqrt``)."""
    c = sqrt(tau * (a * a - 0.25))
    out = a * tau + nu
    return {(0, 0): a, (1, 1): a, (2, 2): out, (3, 3): out, (0, 2): c, (1, 3): -c}


def choi_cm(channel: ChannelSpec, a: float) -> CovarianceMatrix:
    """Covariance matrix of the finite-energy Choi state at squeezing a.

    One half of a two-mode squeezed vacuum with diagonal parameter
    a = n_s + 1/2 is sent through the channel.  Mode 1 is the retained
    idler (variance a), mode 2 the channel output (variance a*tau + nu),
    with q/p correlations +-sqrt(tau*(a^2 - 1/4)).
    """
    if a < 0.5:
        raise ValueError(f"squeezing parameter a must be >= 1/2, got {a}")
    V = np.zeros((4, 4))
    for (i, j), v in _choi_entries(a, channel.tau, channel.nu, math.sqrt).items():
        V[i, j] = V[j, i] = v
    return CovarianceMatrix(V)


def _in_units(pair: EnvironmentPair, a=math.inf) -> tuple:
    """(k, hi, lo, e) of :func:`fidelity_finite`, the last three in units of
    2^k, k (elementwise in a) putting the largest of nu_t, nu_b and tau/(2a)
    near 2^500 so that no square overflows: R+- = sqrt((nu_t +- g)(nu_b +- g)),
    g = |1 - tau|/2, (hi, lo) = (R+, R-) for tau <= 1 and (R-, R+) above.
    Each factor of R+- is brought to [1/2, 2) by an even power of two.  Powers
    of two scale exactly: wherever the plain arithmetic stays normal, this
    is it, bit for bit."""
    tau, nus = pair.tau, (pair.target.nu, pair.background.nu)
    scale = np.maximum(max(nus), 0.5 * tau / a)  # tau/(2a): finite for any tau
    k = np.frexp(scale)[1] - 500
    halves = (0.5, -tau / 2) if tau <= 1.0 else (-0.5, tau / 2)  # sum to g
    kf = max(0, math.frexp(max(*nus, tau))[1] - 1022)  # keeps each nu + g finite

    def root(s: float):
        # each nu +- g is one correctly rounded sum, 0 for a pure environment
        xs = [max(math.fsum(math.ldexp(v, -kf) for v in (nu, s * halves[0], s * halves[1])), 0.0) for nu in nus]
        js = [math.frexp(x)[1] // 2 for x in xs]
        return np.ldexp(math.sqrt(math.prod(math.ldexp(x, -2 * j) for x, j in zip(xs, js))), kf - k + sum(js))

    plus, minus = root(1.0), root(-1.0)
    hi, lo = (plus, minus) if tau <= 1.0 else (minus, plus)
    # a tolerance-negative nu below -scale only ever meets the clamp at 0
    nu_sum = sum(np.ldexp(np.maximum(nu, -scale), -k) for nu in nus)
    e = 2.0 * np.maximum(nu_sum, 0.0) + np.ldexp(0.5 * tau / a, 1 - k)
    return k, hi, lo, e


def fidelity_finite(pair: EnvironmentPair, a):
    """Fidelity between the pair's finite-energy Choi states at squeezing a.

    An exact closed form in (tau, nu_t, nu_b, a).  With g = |1 - tau|/2,
    R+- = sqrt((nu_t +- g)(nu_b +- g)) and (hi, lo) = (R+, R-) for tau <= 1,
    (R-, R+) for tau > 1:

        p = (a - 1/2)/a hi + (a + 1/2)/a lo,   e = 2 max(nu_t + nu_b, 0) + tau/a,
        F = (p + sqrt(p^2 + e/a)) / e.

    Derivation: the Choi matrices V_k = [[a I, c Z], [c Z, (tau a + nu_k) I]],
    c^2 = tau (a^2 - 1/4), have sqrt(det(V_t + V_b)) = a e and
    det(V_k + i Omega/2) = (a^2 - 1/4)(nu_k^2 - g^2).  In the two-mode
    fidelity formula of Marian and Marian, PRA 86, 022340 (2012), these give
    sqrt(Gamma) + sqrt(Lambda) - sqrt(Delta) = 2 (a p)^2, hence
    F = (a p + sqrt((a p)^2 + a e)) / (a e), used here divided through by a
    so that no finite a overflows.  Every term is non-negative and each
    nu -+ g is one correctly rounded sum, so nothing cancels, pure
    environments included.  The max clamps the sum the complete-positivity
    tolerance can leave at -1e-12, as R+- clamp each nu -+ g at 0, so a
    noiseless additive pair gives 1.0 at every a.  F is non-increasing in
    a; at a = 1/2 it is :func:`fidelity_classical`, and as a -> infinity
    it tends to (hi + lo)/(nu_t + nu_b), :func:`fidelity_choi_inf`.  F is
    evaluated in the units 2^k of :func:`_in_units`, where e/a gains a factor
    2^-k, so that every finite input gives a finite F.

    An array of a gives an array of its shape, each entry bit for bit the
    scalar call; a below 1/2 or not finite raises ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a) & (a >= 0.5)):
        raise ValueError(f"squeezing parameter a must be finite and >= 1/2, got {a.min()}")
    k, hi, lo, e = _in_units(pair, a)
    p = (a - 0.5) / a * hi + (a + 0.5) / a * lo
    F = np.minimum((p + np.sqrt(p * p + np.ldexp(e / a, -k))) / e, 1.0)
    return F if F.ndim else float(F)


def fidelity_classical(pair: EnvironmentPair) -> float:
    """Output fidelity of the optimal classical (vacuum-probe) strategy.

    A vacuum probe is the a = 1/2 Choi state: the idler is vacuum and
    uncorrelated, so this is :func:`fidelity_finite` at a = 1/2, the
    fidelity of the two thermal outputs of variance tau/2 + nu.
    """
    return fidelity_finite(pair, 0.5)


def fidelity_choi_inf(pair: EnvironmentPair) -> float:
    """Fidelity between the pair's asymptotic (infinitely squeezed) Choi states.

    The a -> infinity limit of :func:`fidelity_finite`,
    (hi + lo)/(nu_t + nu_b).  For additive pairs this is
    2 sqrt(nu_t nu_b)/(nu_t + nu_b), and for loss/amplifier pairs the
    tau-independent sqrt((4 e_t e_b + 1 + sqrt((4 e_t^2 - 1)(4 e_b^2 - 1))) / 2)
    / (e_t + e_b) in the thermal parameters eps = nbar + 1/2.  A noiseless
    additive pair gives 1.0 (nu_t + nu_b <= 0: the complete-positivity
    tolerance admits nu down to -1e-12), a noiseless channel against a noisy
    one 0.0.
    """
    if pair.target.nu + pair.background.nu <= 0.0:
        return 1.0
    _, hi, lo, e = _in_units(pair)  # e = 2 (nu_t + nu_b) at a = infinity
    return min(1.0, float(2.0 * (hi + lo) / e))


def _mp_choi_fidelity(pair: EnvironmentPair, a: float, dps: int = 60) -> float:
    """Choi-state fidelity with covariance matrices built and diagonalised in
    extended precision, usable at squeezing values far beyond double range."""
    from mpmath import mp

    with MP_LOCK, mp.workdps(dps):
        A1, A2 = mp.zeros(4), mp.zeros(4)
        for M, ch in ((A1, pair.target), (A2, pair.background)):
            for (i, j), v in _choi_entries(mp.mpf(a), mp.mpf(pair.tau), mp.mpf(ch.nu), mp.sqrt).items():
                M[i, j] = M[j, i] = v
    return _fidelity_mp(A1, A2, dps)


def fidelity_choi_inf_extrapolated(pair: EnvironmentPair) -> float:
    """Infinite-squeezing Choi fidelity from the covariance-matrix route.

    Evaluated at two squeezing values far into the asymptotic regime; the
    spread between them estimates the residual.  Warns with
    ``ExtrapolationWarning`` if the spread exceeds 1e-9.  No CLI path calls
    it: it is the independent reference for :func:`fidelity_choi_inf`.
    """
    lo = _mp_choi_fidelity(pair, _ASYMPTOTIC_A[0])
    hi = _mp_choi_fidelity(pair, _ASYMPTOTIC_A[1])
    if abs(hi - lo) > _ASYMPTOTIC_SPREAD_TOL:
        warnings.warn(
            f"infinite-squeezing fidelity spread {abs(hi - lo):.3e} above tolerance",
            ExtrapolationWarning,
            stacklevel=2,
        )
    return min(hi, 1.0)


def temperature_of(nbar: float, wavelength: float) -> float:
    """Blackbody temperature (Kelvin) of a mode with occupation ``nbar`` at
    the given wavelength (meters), T = hc / (k lambda ln(1/nbar + 1))."""
    if nbar <= 0:
        raise ValueError(f"occupation must be positive, got {nbar}")
    if not 0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    with np.errstate(divide="ignore", over="ignore"):
        t = _h_planck * _c_light / (_k_boltzmann * wavelength * np.log1p(1.0 / nbar))
    if not np.isfinite(t):
        raise ValueError(f"temperature overflows double precision: occupation {nbar}, wavelength {wavelength}")
    return t
