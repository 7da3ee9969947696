"""Channel parameterisation, Choi/vacuum-probe states and fidelities."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

from qthermal.channels import (
    ChannelSpec,
    EnvironmentPair,
    choi_cm,
    fidelity_choi_inf,
    fidelity_choi_inf_extrapolated,
    fidelity_classical,
    fidelity_finite,
    temperature_of,
)
from qthermal.channels import _mp_choi_fidelity
from qthermal.errors import NonPhysicalChannelError
from qthermal.gaussian import CovarianceMatrix, gaussian_fidelity

from conftest import (
    choi_reference_fidelity,
    printed_choi_thermal,
    printed_classical_additive,
    thermal_cm,
    tmsv_cm,
)


class TestChannelSpec:
    def test_identity_channel_allowed(self):
        ChannelSpec(1.0, 0.0)

    def test_epsilon_roundtrip(self):
        ch = ChannelSpec.from_epsilon(0.99, 18.5)
        assert ch.nu == pytest.approx(0.185)

    def test_rejects_subphysical_noise(self):
        with pytest.raises(NonPhysicalChannelError):
            ChannelSpec(0.5, 0.2)  # floor is 0.25
        with pytest.raises(NonPhysicalChannelError):
            ChannelSpec.additive(-0.1)

    def test_pair_requires_identical_tau(self):
        with pytest.raises(NonPhysicalChannelError):
            EnvironmentPair(ChannelSpec(0.9, 0.5), ChannelSpec(0.8, 0.5))


class TestChoiCm:
    def test_identity_channel_gives_tmsv(self):
        V = choi_cm(ChannelSpec(1.0, 0.0), a=3.0)
        assert_allclose(V.matrix, tmsv_cm(3.0).matrix, atol=1e-12)

    def test_full_loss_decouples(self):
        V = choi_cm(ChannelSpec.from_epsilon(0.0, 1.5), a=2.0)
        assert_allclose(V.matrix, np.diag([2.0, 2.0, 1.5, 1.5]), atol=1e-12)

    def test_vacuum_idler(self):
        V = choi_cm(ChannelSpec(0.5, 0.25), a=0.5)
        assert_allclose(V.matrix, 0.5 * np.eye(4), atol=1e-12)

    def test_rejects_subvacuum_squeezing(self):
        with pytest.raises(ValueError):
            choi_cm(ChannelSpec(1.0, 0.1), a=0.4)


# (pair, fidelity_choi_inf, _mp_choi_fidelity at a = 0.5, 0.8, 1e4, 1e13).
# The mpmath tuples are the values of the separate numpy and mpmath Choi
# constructors that _choi_entries replaced, which the shared one must
# reproduce bit for bit.  The fidelity_choi_inf column is the closed-form
# limit (hi + lo)/(nu_t + nu_b); on the loss pair it is one ulp (1.2e-16
# relative) below the printed thermal form and the 150-digit value.
PINNED_CHOI = [
    (
        EnvironmentPair.additive(0.02, 0.01),
        0.9428090415820635,
        (0.999155165318526, 0.9986604642377078, 0.9430047670143233, 0.9428090415822598),
    ),
    (
        EnvironmentPair.thermal(0.3, 0.5, 0.6),
        0.9534625892455922,
        (0.9667364890456636, 0.9643819959875238, 0.9534644464714083, 0.9534625892455942),
    ),
    (
        EnvironmentPair.thermal(2.87, 4.2, 0.5),
        0.46126560401444255,
        (0.8023399349631265, 0.7061436783216123, 0.46129346821130773, 0.46126560401447037),
    ),
]


class TestSharedChoiConstructor:
    @pytest.mark.parametrize("pair, f_inf, f_mp", PINNED_CHOI, ids=["additive", "loss", "amplifier"])
    def test_extended_precision_route_pinned(self, pair, f_inf, f_mp):
        assert fidelity_choi_inf(pair) == f_inf
        assert tuple(_mp_choi_fidelity(pair, a) for a in (0.5, 0.8, 1e4, 1e13)) == f_mp

    @pytest.mark.parametrize("pair", [p for p, _, _ in PINNED_CHOI], ids=["additive", "loss", "amplifier"])
    def test_double_precision_matrix_entries(self, pair):
        ch = pair.background
        for a in (0.5, 0.8, 7.3):
            V = choi_cm(ch, a).matrix
            c, out = np.sqrt(ch.tau * (a * a - 0.25)), a * ch.tau + ch.nu
            assert np.array_equal(V, [[a, 0, c, 0], [0, a, 0, -c], [c, 0, out, 0], [0, -c, 0, out]])


def vacuum_probe_reference(variance_t: float, variance_b: float) -> float:
    """Fidelity of two single-mode thermal outputs with the given quadrature
    variances, from the 2x2 covariance-matrix route."""
    return gaussian_fidelity(
        CovarianceMatrix(variance_t * np.eye(2)), CovarianceMatrix(variance_b * np.eye(2))
    )


class TestClassicalOutput:
    # a vacuum probe leaves a thermal output of variance tau/2 + nu

    def test_identity(self):
        pair = EnvironmentPair(ChannelSpec.additive(0.01), ChannelSpec(1.0, 0.0))
        assert fidelity_classical(pair) == pytest.approx(
            vacuum_probe_reference(0.5, 0.51), rel=1e-13
        )

    def test_additive(self):
        pair = EnvironmentPair.additive(0.02, 0.01)
        assert fidelity_classical(pair) == pytest.approx(
            vacuum_probe_reference(0.51, 0.52), rel=1e-13
        )

    def test_loss(self):
        pair = EnvironmentPair(ChannelSpec(0.99, 18.5 * 0.01), ChannelSpec(0.99, 20.2 * 0.01))
        assert fidelity_classical(pair) == pytest.approx(
            vacuum_probe_reference(0.68, 0.697), rel=1e-13
        )


class TestChoiInfinity:
    def test_additive_identical(self):
        assert fidelity_choi_inf(EnvironmentPair.additive(0.01, 0.01)) == 1.0

    def test_additive_closed_form(self):
        F = fidelity_choi_inf(EnvironmentPair.additive(0.02, 0.01))
        assert F == pytest.approx(2 * np.sqrt(2e-4) / 0.03, abs=1e-12)
        assert F == pytest.approx(0.9428090, abs=1e-7)

    def test_thermal_identical_is_anchor(self):
        pair = EnvironmentPair.thermal(0.7, 18.5, 18.5)
        assert fidelity_choi_inf(pair) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_closed_form_matches_cm_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            eps_b, eps_t = rng.uniform(0.6, 30.0, 2)
            tau = rng.uniform(0.05, 0.995)
            pair = EnvironmentPair.thermal(tau, eps_b, eps_t)
            oracle = fidelity_choi_inf_extrapolated(pair)
            assert printed_choi_thermal(eps_t, eps_b) == pytest.approx(oracle, abs=1e-9)
            assert fidelity_choi_inf(pair) == pytest.approx(oracle, abs=1e-9)

    def test_thermal_tau_independent(self):
        vals = [
            fidelity_choi_inf(EnvironmentPair.thermal(tau, 18.5, 20.2))
            for tau in (0.1, 0.5, 0.9, 0.99)
        ]
        assert max(vals) - min(vals) <= 1e-6

    def test_printed_transcription_fails_anchor(self):
        # the obvious eps*eps + 1 variant of the numerator does not
        # evaluate to 1 on identical channels; the factor-4 form does
        eps = 18.5
        broken = np.sqrt(eps * eps + 1 + np.sqrt((4 * eps**2 - 1) ** 2)) / (
            np.sqrt(2) * 2 * eps
        )
        assert abs(broken - 1.0) > 0.1
        assert printed_choi_thermal(eps, eps) == pytest.approx(1.0, abs=1e-12)


class TestClassicalFidelity:
    def test_identical(self):
        assert fidelity_classical(EnvironmentPair.additive(0.3, 0.3)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_additive_closed_form(self):
        pair = EnvironmentPair.additive(0.02, 0.01)
        expected = 1.0 / (np.sqrt(1.01 * 1.02) - np.sqrt(2e-4))
        assert fidelity_classical(pair) == pytest.approx(expected, abs=1e-10)
        assert fidelity_classical(pair) == pytest.approx(
            printed_classical_additive(0.01, 0.02), rel=1e-15
        )

    def test_thermal_single_mode_route(self):
        tau = 0.99
        pair = EnvironmentPair.thermal(tau, 18.5, 20.2)
        outs = [tau / 2 + ch.nu - 0.5 for ch in (pair.target, pair.background)]
        expected = gaussian_fidelity(thermal_cm(outs[0]), thermal_cm(outs[1]))
        assert fidelity_classical(pair) == pytest.approx(expected, abs=1e-12)

    def test_thermal_closed_form_reconciled(self):
        # the appendix form reads (sqrt(alpha + delta) + sqrt(alpha - beta))/beta
        # with delta undefined; delta = beta reproduces the vacuum-probe value
        rng = np.random.default_rng(3)
        for _ in range(20):
            eps_t, eps_b = rng.uniform(0.5, 30.0, 2)
            tau = rng.uniform(0.05, 0.995)
            al = 4 * eps_t * eps_b * (1 - tau) ** 2 + 2 * (eps_t + eps_b) * tau * (1 - tau) + 1 + tau**2
            be = 2 * (tau + (eps_t + eps_b) * (1 - tau))
            closed = (np.sqrt(al + be) + np.sqrt(al - be)) / be
            pair = EnvironmentPair.thermal(tau, eps_b, eps_t)
            assert closed == pytest.approx(fidelity_classical(pair), abs=1e-10)


class TestFiniteEnergy:
    def test_half_equals_classical(self):
        # at a = 1/2 the idler is vacuum: the outputs' single-mode fidelity
        rng = np.random.default_rng(7)
        for _ in range(10):
            tau = rng.uniform(0.05, 0.999)
            pair = EnvironmentPair.thermal(tau, *rng.uniform(0.5, 25.0, 2))
            variances = [tau / 2 + ch.nu for ch in (pair.target, pair.background)]
            assert fidelity_finite(pair, 0.5) == pytest.approx(
                vacuum_probe_reference(*variances), abs=1e-10
            )

    def test_identical_channels_any_energy(self):
        pair = EnvironmentPair.additive(0.05, 0.05)
        for a in (0.5, 1.0, 10.0):
            assert fidelity_finite(pair, a) == pytest.approx(1.0, abs=1e-12)

    def test_additive_closed_form(self):
        nu_t, nu_b = 0.01, 0.02
        pair = EnvironmentPair.additive(nu_b, nu_t)
        for a in (0.5, 1.0, 2.5, 10.0, 100.0):
            closed = (2 * a * np.sqrt(nu_t * nu_b) + np.sqrt((2 * a * nu_t + 1) * (2 * a * nu_b + 1))) / (
                2 * a * (nu_t + nu_b) + 1
            )
            assert fidelity_finite(pair, a) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize(
        "pair",
        [
            EnvironmentPair.additive(0.02, 0.01),
            EnvironmentPair.thermal(0.99, 18.5, 20.2),
            EnvironmentPair.thermal(0.5, 2.0, 5.0),
        ],
    )
    def test_monotone_and_sandwiched(self, pair):
        grid = [0.5, 1.0, 2.5, 10.0, 100.0]
        vals = [fidelity_finite(pair, a) for a in grid]
        assert np.all(np.diff(vals) <= 1e-12)
        f_inf = fidelity_choi_inf(pair)
        f_cl = fidelity_classical(pair)
        for v in vals:
            assert f_inf - 1e-9 <= v <= f_cl + 1e-9

    def test_unity_iff_equal_channels(self):
        pair = EnvironmentPair.additive(0.02, 0.0200001)
        assert fidelity_classical(pair) < 1.0
        assert fidelity_choi_inf(pair) < 1.0


@st.composite
def environment_pairs(draw) -> EnvironmentPair:
    """Additive, loss or amplifier pair, pure environments included."""
    if draw(st.booleans()):
        return EnvironmentPair.additive(draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)))
    tau = draw(st.one_of(st.floats(0.01, 0.999), st.floats(1.001, 3.0)))
    return EnvironmentPair.thermal(tau, draw(st.floats(0.5, 30.0)), draw(st.floats(0.5, 30.0)))


squeezing = st.floats(0.5, 1e3)


# Tolerance of the structural properties below (symmetry, monotonicity).
# The closed form's accuracy is checked separately, against 100-digit Choi
# matrices, by TestFiniteEnergyAccuracy.
RESOLUTION = 1e-9


class TestFiniteEnergyProperties:
    @given(environment_pairs(), squeezing)
    def test_symmetric_and_in_unit_interval(self, pair, a):
        F = fidelity_finite(pair, a)
        swapped = EnvironmentPair(background=pair.target, target=pair.background)
        assert isinstance(F, float)
        assert 0.0 <= F <= 1.0
        assert fidelity_finite(swapped, a) == pytest.approx(F, abs=RESOLUTION)

    @given(environment_pairs(), squeezing, squeezing)
    def test_non_increasing_in_squeezing(self, pair, a1, a2):
        low, high = fidelity_finite(pair, np.array([min(a1, a2), max(a1, a2)]))
        assert high <= low + RESOLUTION

    @given(environment_pairs(), st.lists(squeezing, max_size=6), st.integers(0, 6))
    def test_grid_equals_scalar_calls(self, pair, grid, at):
        # the vacuum-probe row a = 1/2 is fidelity_classical
        grid.insert(min(at, len(grid)), 0.5)
        F = fidelity_finite(pair, np.array(grid))
        assert F.shape == (len(grid),)
        for a, f in zip(grid, F):
            assert f == fidelity_finite(pair, a)

    def test_large_squeezing_matches_extended_precision(self):
        # V1 + V2 conditions like a: about 2e5 at a = 1e4 for this pair
        pair = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        assert fidelity_finite(pair, 1e4) == pytest.approx(
            _mp_choi_fidelity(pair, 1e4), rel=1e-12, abs=0.0
        )

    def test_large_squeezing_sweep_non_increasing(self):
        F = fidelity_finite(EnvironmentPair.thermal(0.99, 18.5, 20.2), np.geomspace(2e4, 1e6, 40))
        assert np.all(np.diff(F) <= 0.0)

    def test_rejects_squeezing_below_half_anywhere_in_grid(self):
        # non-finite squeezing is rejected the same way, grid or scalar
        for bad in (0.4, np.nan, np.inf):
            with pytest.raises(ValueError, match="squeezing parameter"):
                fidelity_finite(EnvironmentPair.additive(0.02, 0.01), np.array([1.0, bad]))
            with pytest.raises(ValueError, match="squeezing parameter"):
                fidelity_finite(EnvironmentPair.thermal(0.3, 0.5, 0.6), bad)


def _powers_of_ten(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@st.composite
def pure_and_mixed_pairs(draw) -> EnvironmentPair:
    """Additive, loss or amplifier pair whose environments are pure, near-pure
    or mixed (eps = 1/2 + 10^[-14, 2], nu = 10^[-8, 1]), target and
    background possibly equal to within 10^-12 relative."""
    kind = draw(st.sampled_from(["additive", "loss", "amplifier"]))
    if kind == "additive":
        noise = st.one_of(st.just(0.0), _powers_of_ten(-8, 1))
    else:
        noise = st.one_of(st.just(0.5), _powers_of_ten(-14, 2).map(lambda x: 0.5 + x))
    first = draw(noise)
    second = draw(st.one_of(noise, _powers_of_ten(-12, -3).map(lambda r: first * (1 + r))))
    if kind == "additive":
        return EnvironmentPair.additive(first, second)
    tau = draw(st.floats(0.01, 0.999) if kind == "loss" else st.floats(1.001, 5.0))
    return EnvironmentPair.thermal(tau, first, second)


# Accuracy of the closed form against the 100-digit covariance-matrix route.
ACCURACY = 1e-13


class TestFiniteEnergyAccuracy:
    @given(pure_and_mixed_pairs(), _powers_of_ten(-10, 6).map(lambda x: 0.5 + x))
    def test_matches_100_digit_reference(self, pair, a):
        assert fidelity_finite(pair, a) == pytest.approx(
            choi_reference_fidelity(pair, a), rel=ACCURACY, abs=0.0
        )

    @pytest.mark.parametrize(
        "pair, a",
        [
            # gaussian_fidelity of double-precision choi_cm matrices is 1.5e-9,
            # 2.2e-8, 8.3e-8 and 8.7e-9 off on these (pure or near-pure noise)
            (EnvironmentPair.thermal(0.3, 0.5, 0.6), 0.6),
            (EnvironmentPair.thermal(0.3, 0.5, 0.6), 100.0),
            (EnvironmentPair.additive(0.73, 2.7e-6), 4.3e4),
            (EnvironmentPair.thermal(2.87, 4.2, 0.5), 1.5),
            # nu - g taken as a plain difference instead of one rounded sum
            # loses 1.9e-11 here, where 1 - tau is inexact
            (EnvironmentPair.thermal(0.3, 0.5 + 1e-12, 20.0), 10.0),
            # the double-precision choi_cm matrix of the noiseless channel is
            # rejected as non-physical here (symplectic eigenvalue 0.499999)
            (EnvironmentPair.additive(3e-5, 0.0), 1e5),
        ],
    )
    def test_pinned_cases(self, pair, a):
        assert fidelity_finite(pair, a) == pytest.approx(
            choi_reference_fidelity(pair, a), rel=ACCURACY, abs=0.0
        )

    @pytest.mark.parametrize("pair", [p for p, _, _ in PINNED_CHOI], ids=["additive", "loss", "amplifier"])
    def test_infinite_squeezing_limit(self, pair):
        assert fidelity_finite(pair, 1e300) == pytest.approx(fidelity_choi_inf(pair), abs=1e-12)


class TestEndpointAccuracy:
    """The vacuum-probe and infinitely squeezed fidelities are the a = 1/2
    value and the a -> infinity limit of the closed form, held to Choi
    matrices built in 100 digits at a = 1/2 and in 150 digits at a = 1e30."""

    @given(pure_and_mixed_pairs())
    def test_classical_matches_half_reference(self, pair):
        F = fidelity_classical(pair)
        assert F == fidelity_finite(pair, 0.5)
        assert F == pytest.approx(choi_reference_fidelity(pair, 0.5), rel=ACCURACY, abs=0.0)

    @given(pure_and_mixed_pairs())
    def test_choi_inf_matches_large_squeezing_reference(self, pair):
        F = fidelity_choi_inf(pair)
        assert isinstance(F, float)
        nus = (pair.target.nu, pair.background.nu)
        if pair.tau == 1.0 and min(nus) == 0.0 < max(nus):
            # a noiseless channel against a noisy one: the limit is 0
            assert F == 0.0
        else:
            assert F == pytest.approx(
                choi_reference_fidelity(pair, 1e30, dps=150), rel=ACCURACY, abs=0.0
            )

    def test_noiseless_additive_pair(self):
        # nu down to -1e-12 passes the complete-positivity check, so nu_t + nu_b
        # can be negative; fidelity_finite must stay finite once 1/a < 2|nu_t + nu_b|
        for nus in ((0.0, 0.0), (-1e-13, 0.0)):
            pair = EnvironmentPair.additive(*nus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert fidelity_classical(pair) == 1.0
                assert fidelity_choi_inf(pair) == 1.0
                assert fidelity_finite(pair, 1e13) == 1.0
                assert np.array_equal(fidelity_finite(pair, np.array([0.5, 1e13])), [1.0, 1.0])


# 2 sqrt(r)/(1 + r) at r = 1/2: the closed form of both huge-noise pairs below
HUGE_CLOSED_FORM = 2.0 * math.sqrt(2.0) / 3.0


class TestHugeNoise:
    """Noise far beyond any physical value: (nu_t +- g)(nu_b +- g) and p^2
    overflow above ~1e154 in plain double arithmetic, which once gave nan
    at a = 1/2 and 1.0 at larger a, with a RuntimeWarning."""

    @pytest.mark.parametrize(
        "pair",
        [EnvironmentPair.additive(2e160, 1e160), EnvironmentPair.thermal(0.5, 2e160, 1e160)],
        ids=["additive", "thermal"],
    )
    def test_matches_closed_form(self, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = fidelity_finite(pair, np.array([0.5, 10.0, 1e6]))
            for a, F in zip((0.5, 10.0, 1e6), grid):
                assert F == fidelity_finite(pair, a)
                assert F == pytest.approx(HUGE_CLOSED_FORM, rel=1e-15, abs=0.0)
            assert fidelity_classical(pair) == pytest.approx(HUGE_CLOSED_FORM, rel=1e-15, abs=0.0)
            assert fidelity_choi_inf(pair) == pytest.approx(HUGE_CLOSED_FORM, rel=1e-15, abs=0.0)


@st.composite
def full_range_pairs(draw) -> EnvironmentPair:
    """Additive, loss or amplifier pair with each noise anywhere in [g, 1e308],
    g = |1 - tau|/2, pure environments (nu = g) included; additive noise
    reaches down to the complete-positivity tolerance, -1e-12."""
    kind = draw(st.sampled_from(["additive", "loss", "amplifier"]))
    if kind == "additive":
        tau = 1.0
    elif kind == "loss":
        tau = draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        tau = draw(st.floats(1.0, 1e308, exclude_min=True))
    g = abs(1.0 - tau) / 2.0
    low = -1e-12 if kind == "additive" else g
    noise = st.one_of(st.just(g), st.floats(low, 1e308))
    return EnvironmentPair(ChannelSpec(tau, draw(noise)), ChannelSpec(tau, draw(noise)))


def additive_choi_inf_reference(nu_t: float, nu_b: float) -> float:
    """2 sqrt(r)/(1 + r), r = nu_t/nu_b, in 30 digits; 1 for nu_t = nu_b = 0."""
    if nu_t + nu_b == 0.0:
        return 1.0
    with mp.workdps(30):
        return float(2 * mp.sqrt(mp.mpf(nu_t) * nu_b) / (mp.mpf(nu_t) + nu_b))


class TestFullFloatRange:
    """Every fidelity is finite, in [0, 1] and symmetric for any finite
    noise and squeezing.  The additive closed form holds to 13 digits
    wherever it is a normal double; below that a double carries fewer."""

    @given(full_range_pairs(), st.floats(0.5, 1e300))
    @example(EnvironmentPair.additive(2e160, 1e160), 0.5)
    @example(EnvironmentPair.additive(1e-200, 1e-200), 1e300)
    @example(EnvironmentPair.additive(0.0, 1e308), 0.5)
    def test_finite_in_unit_interval_and_symmetric(self, pair, a):
        swapped = EnvironmentPair(background=pair.target, target=pair.background)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fidelity in (lambda p: fidelity_finite(p, a), fidelity_classical, fidelity_choi_inf):
                F = fidelity(pair)
                assert math.isfinite(F) and 0.0 <= F <= 1.0
                assert fidelity(swapped) == F

    @given(full_range_pairs(), st.floats(0.5, 1e300))
    @example(EnvironmentPair.additive(1e-13, -1e-13), 1e250)
    @example(EnvironmentPair.additive(1e-13, -1e-13), 1e300)
    def test_finite_squeezing_reaches_the_asymptote(self, pair, a):
        # F is non-increasing in a towards fidelity_choi_inf; the examples'
        # noise sums to 0, a noiseless pair at every a, though the larger
        # noise alone would set a scale in which e/a underflows
        assert fidelity_finite(pair, a) >= fidelity_choi_inf(pair) * (1 - 1e-12)

    @given(st.floats(0.0, 1e308), st.floats(0.0, 1e308))
    @example(1e160, 2e160)
    @example(1e-200, 1e-200)
    @example(1e-300, 1e308)
    def test_additive_choi_inf_matches_closed_form(self, nu_t, nu_b):
        F = fidelity_choi_inf(EnvironmentPair.additive(nu_b, nu_t))
        assert F == pytest.approx(additive_choi_inf_reference(nu_t, nu_b), rel=1e-13, abs=sys.float_info.min)


class TestTemperature:
    def test_reference_value(self):
        # hc/k = 1.4387768775e-2 m K over ln(19/18) at 1 mm
        assert temperature_of(18.0, 1e-3) == pytest.approx(266.10889993988314, rel=1e-12)

    def test_monotone_in_occupation(self):
        assert temperature_of(19.7, 1e-3) > temperature_of(18.0, 1e-3)

    def test_deterministic(self):
        assert temperature_of(5.0, 1e-3) == temperature_of(5.0, 1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            temperature_of(0.0, 1e-3)
        with pytest.raises(ValueError):
            temperature_of(1.0, 0.0)
        for wavelength in (np.nan, np.inf):
            with pytest.raises(ValueError, match="wavelength"):
                temperature_of(1.0, wavelength)
        # hc / (k lambda ln(1 + 1/nbar)) overflows: once inf with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                temperature_of(1e308, 1e-3)

    @pytest.mark.parametrize("nbar", [math.nan, -math.inf, -0.0, [2.0, math.nan, 0.0]])
    def test_occupation_that_is_not_positive_is_named(self, nbar):
        # NaN once passed the positivity check and was blamed on overflow
        with pytest.raises(ValueError, match=r"^occupation must be positive, got (nan|-inf|-0\.0)$"):
            temperature_of(nbar, 1e-3)

    def test_array_names_first_overflowing_occupation(self):
        with pytest.raises(ValueError, match=r"overflows double precision: occupation 1e\+308,"):
            temperature_of([18.0, 1e308, 2e308 / 3], 1e-3)

    @given(st.lists(st.floats(min_value=5e-324), min_size=2, max_size=2))
    @example([1e-310, 1e-300])
    @example([5e-324, 1e-308])
    def test_positive_and_non_decreasing_down_to_subnormals(self, nbars):
        # below ~1e-308 1/nbar overflows, which once read 0 K
        temps = []
        for nbar in sorted(nbars):
            try:
                temps.append(temperature_of(nbar, 1e-3))
            except ValueError as exc:
                assert "overflows double precision" in str(exc)
        assert all(t > 0 for t in temps)
        assert temps == sorted(temps)

    @given(st.lists(st.floats(1e-300, 1e280), min_size=1, max_size=300))
    def test_array_entries_are_the_scalar_calls(self, nbars):
        temps = temperature_of(nbars, 1e-3)
        assert temps.shape == (len(nbars),)
        assert [t.hex() for t in temps.tolist()] == [float(temperature_of(nb, 1e-3)).hex() for nb in nbars]
