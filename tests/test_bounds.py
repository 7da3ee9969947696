"""Discrimination bounds, advantage metrics and pixel error intervals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

from qthermal.bounds import bounds, min_rel_probe_uniform, pixel_error_bounds
from qthermal.channels import (
    EnvironmentPair,
    fidelity_choi_inf,
    fidelity_classical,
)
from qthermal.spaces import ImageSpace, bcpf_functional

from conftest import (
    exact_nn_error,
    image_spaces,
    min_rel_probe_additive,
    pair_sum,
    printed_choi_additive,
    printed_classical_additive,
    space_patterns,
)

F_Q_ADD = printed_choi_additive(0.01, 0.02)
F_CL_ADD = printed_classical_additive(0.01, 0.02)


class TestPixelErrorBounds:
    def test_indistinguishable(self):
        assert pixel_error_bounds(1.0, 7) == (0.5, 0.5)

    def test_perfectly_distinguishable(self):
        assert pixel_error_bounds(0.0, 3) == (0.0, 0.0)

    def test_ordering_and_monotonicity(self):
        prev = (0.5, 0.5)
        for M in (1, 5, 20, 50, 200):
            lo, hi = pixel_error_bounds(F_Q_ADD, M)
            assert 0.0 <= lo <= hi <= 0.5
            assert lo <= prev[0] + 1e-15 and hi <= prev[1] + 1e-15
            prev = (lo, hi)

    def test_underflow_regime(self):
        lo, hi = pixel_error_bounds(0.5, 10**6)
        assert lo == 0.0 and hi == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pixel_error_bounds(1.2, 3)
        with pytest.raises(ValueError):
            pixel_error_bounds(0.5, 0)


class TestUniformBounds:
    def test_single_pixel_helstrom(self):
        F = 0.8
        for M in (1, 3, 10):
            rep = bounds(ImageSpace.uniform(1), M, F, F)
            assert rep.q_lower == pytest.approx(F ** (2 * M) / 4, rel=1e-12)
            assert rep.q_upper == pytest.approx(F**M / 2, rel=1e-12)

    def test_identical_channels(self):
        for space in (ImageSpace.uniform(4), ImageSpace.cpf(5, 2), ImageSpace.bcpf(5, [1, 2])):
            rep = bounds(space, 10, 1.0, 1.0)
            assert rep.q_lower == rep.cl_lower
            assert rep.mga <= 0.0
        assert min_rel_probe_uniform(1.0, 1.0) == math.inf

    def test_mga_crossing_additive_m9(self):
        space = ImageSpace.uniform(9)
        reps = {M: bounds(space, M, F_Q_ADD, F_CL_ADD) for M in range(1, 201)}
        assert reps[1].mga < 0
        assert any(rep.mga > 0 for rep in reps.values())
        for rep in reps.values():
            assert rep.mpa >= rep.mga - 1e-12

    def test_large_m_log_domain(self):
        rep = bounds(ImageSpace.uniform(784), 100, 0.99, 0.999)
        assert 0.0 <= rep.q_lower <= rep.q_upper <= 1.0
        rep = bounds(ImageSpace.uniform(10_000), 5, 0.9, 0.99)
        assert np.isfinite(rep.q_lower) and 0.0 <= rep.q_lower <= 1.0

    def test_paper_scale_matches_closed_form(self):
        # m = 784 over the benchmark grid M = 100..20000 and thermal pair:
        # S(f)/(2|S|^2) = ((1+f)^m - 1) / 2^(m+1) with f = F^(2M), in 50 digits
        pair = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        F_q, F_cl = fidelity_choi_inf(pair), fidelity_classical(pair)
        space, m = ImageSpace.uniform(784), 784
        with mp.workdps(50):
            for M in range(100, 20001, 100):
                rep = bounds(space, M, F_q, F_cl)
                for got, F in ((rep.q_lower, F_q), (rep.cl_lower, F_cl)):
                    f = mp.mpf(F) ** (2 * M)
                    exact = ((1 + f) ** m - 1) / mp.mpf(2) ** (m + 1)
                    assert abs(got - exact) <= 2e-12 * exact, (M, F)

    @pytest.mark.parametrize("M", [1, 10, 100, 1000, 5000])
    @pytest.mark.parametrize(
        "pair",
        [EnvironmentPair.thermal(0.99, 18.5, 20.2), EnvironmentPair.additive(0.02, 0.01)],
        ids=["thermal", "additive"],
    )
    def test_q_upper_is_exact_nn_error_at_upper_pixel_error(self, pair, M):
        # on a uniform space NN decoding fails unless no pixel flips, so its
        # exact error at p_q_up = F_q^M / 2 is the local Helstrom cap
        # 1 - (1 - F_q^M / 2)^m inside q_upper
        F_q, F_cl = fidelity_choi_inf(pair), fidelity_classical(pair)
        space = ImageSpace.uniform(6)
        p_q_up = pixel_error_bounds(F_q, M)[1]
        exact = exact_nn_error(space_patterns(space), p_q_up)
        assert bounds(space, M, F_q, F_cl).q_upper == pytest.approx(exact, rel=1e-12)

    def test_warns_on_inverted_fidelities(self):
        with pytest.warns(UserWarning):
            bounds(ImageSpace.uniform(3), 5, 0.9, 0.5)

    def test_local_bound_beats_joint_bound_on_uniform(self):
        # the separable-measurement bound 1-(1-F^M/2)^m never exceeds the
        # joint-measurement form (F^M+1)^m - 1 on uniform spaces, so the
        # reported upper bound is the local one
        for m in (1, 3, 9, 50):
            for f in np.linspace(0.0, 1.0, 21):
                local = -np.expm1(m * np.log1p(-f / 2))
                joint = np.expm1(m * np.log1p(f))
                assert local <= joint + 1e-15
                rep = bounds(ImageSpace.uniform(m), 1, f, min(1.0, f + 1e-3))
                assert rep.q_upper == pytest.approx(min(local, 1.0), rel=1e-12, abs=1e-300)


class TestSpaceConsistency:
    def test_full_bcpf_equals_uniform(self):
        uni = ImageSpace.uniform(6)
        full = ImageSpace.bcpf(6, range(7))
        for M in (1, 10, 100):
            a = bounds(uni, M, F_Q_ADD, F_CL_ADD)
            b = bounds(full, M, F_Q_ADD, F_CL_ADD)
            assert a == b

    def test_singleton_bcpf_equals_cpf(self):
        for M in (1, 20):
            a = bounds(ImageSpace.cpf(7, 3), M, F_Q_ADD, F_CL_ADD)
            b = bounds(ImageSpace.bcpf(7, [3]), M, F_Q_ADD, F_CL_ADD)
            assert a.q_lower == pytest.approx(b.q_lower, rel=1e-12)
            assert a.q_upper == pytest.approx(b.q_upper, rel=1e-12)

    def test_lower_bounds_not_monotone_across_spaces(self):
        # the lower-bound values themselves are not ordered by space
        # inclusion: enlarging the space adds close pattern pairs but also
        # dilutes the uniform prior, and either effect can win.  The pair
        # {0,1} at m=5 has minimum Hamming distance 1 while the uniform
        # average is dominated by distant pairs, so its bound is larger.
        small = bounds(ImageSpace.bcpf(5, [0, 1]), 1, 0.5, 0.5).q_lower
        uni = bounds(ImageSpace.uniform(5), 1, 0.5, 0.5).q_lower
        assert small > uni

    def test_monotone_in_copies(self):
        for space in (ImageSpace.uniform(9), ImageSpace.cpf(9, 3), ImageSpace.bcpf(9, [2, 4])):
            for field in ("q_lower", "q_upper", "cl_lower"):
                vals = [
                    getattr(bounds(space, M, F_Q_ADD, F_CL_ADD), field)
                    for M in (1, 2, 5, 10, 20, 50, 100)
                ]
                assert np.all(np.diff(vals) <= 1e-12)

    def test_lower_below_upper_random_sweep(self):
        rng = np.random.default_rng(77)
        spaces = [ImageSpace.uniform(6), ImageSpace.cpf(6, 2), ImageSpace.bcpf(6, [1, 4])]
        for _ in range(1000):
            F_q = rng.uniform(0.0, 1.0)
            F_cl = rng.uniform(F_q, 1.0)
            M = int(rng.integers(1, 500))
            rep = bounds(spaces[int(rng.integers(3))], M, F_q, F_cl)
            assert rep.q_lower <= rep.q_upper + 1e-12
            for p in (rep.q_lower, rep.q_upper, rep.cl_lower):
                assert 0.0 <= p <= 1.0


class TestMinRelProbe:
    def test_no_edge_gives_infinity(self):
        assert min_rel_probe_uniform(0.9, 0.9) == math.inf
        assert min_rel_probe_uniform(1.0, 1.0) == math.inf
        assert min_rel_probe_additive(0.3, 0.3) == math.inf

    def test_dual_path_example(self):
        generic = min_rel_probe_uniform(F_Q_ADD, F_CL_ADD)
        closed = min_rel_probe_additive(0.01, 0.02)
        assert generic == pytest.approx(closed, rel=1e-10)

    def test_bernoulli_bound_flip_at_threshold(self):
        # on the Bernoulli-simplified bounds (m/2^(m+1)) F_cl^2M vs (m/2) F_q^M
        # the sign of the guaranteed advantage flips exactly at M = mbar * m
        mbar = min_rel_probe_uniform(F_Q_ADD, F_CL_ADD)
        for m in (4, 9, 50):
            M_hi = math.ceil(mbar * m)
            M_lo = math.floor(mbar * m) - 1
            for M, expect_adv in ((M_hi, True), (M_lo, False)):
                mga_simple = (m / 2 ** (m + 1)) * F_CL_ADD ** (2 * M) - (m / 2) * F_Q_ADD**M
                assert (mga_simple > 0) == expect_adv

    def test_exact_bounds_confirm_guarantee(self):
        mbar = min_rel_probe_uniform(F_Q_ADD, F_CL_ADD)
        for m in (4, 9, 50):
            M_hi = math.ceil(mbar * m)
            rep = bounds(ImageSpace.uniform(m), M_hi, F_Q_ADD, F_CL_ADD)
            assert rep.mga >= 0.0
            assert bounds(ImageSpace.uniform(m), 1, F_Q_ADD, F_CL_ADD).mga < 0.0

    def test_random_pairs_dual_path(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            nu_t, nu_b = 10 ** rng.uniform(-3, 0, 2)
            generic = min_rel_probe_uniform(
                printed_choi_additive(nu_t, nu_b), printed_classical_additive(nu_t, nu_b)
            )
            closed = min_rel_probe_additive(nu_t, nu_b)
            assert generic == pytest.approx(closed, rel=1e-10)

    def test_perfect_quantum_discrimination(self):
        assert min_rel_probe_uniform(0.0, 0.9) == 0.0


fidelities = st.floats(0.0, 1.0)
copies = st.integers(1, 2000)


def ordered(a: float, b: float) -> bool:
    """a <= b up to the rounding of one log-sum-exp."""
    return a <= b * (1.0 + 1e-12)


class TestBoundProperties:
    @given(image_spaces(), fidelities, fidelities, copies)
    def test_ordering(self, space, f1, f2, M):
        F_q, F_cl = min(f1, f2), max(f1, f2)
        rep = bounds(space, M, F_q, F_cl)
        assert ordered(rep.q_lower, rep.q_upper)
        assert ordered(rep.q_lower, rep.cl_lower)
        for p in (rep.q_lower, rep.q_upper, rep.cl_lower):
            assert 0.0 <= p <= 1.0

    @given(image_spaces(), fidelities, fidelities, copies, copies)
    def test_non_increasing_in_copies(self, space, f1, f2, M1, M2):
        F_q, F_cl = min(f1, f2), max(f1, f2)
        few = bounds(space, min(M1, M2), F_q, F_cl)
        many = bounds(space, max(M1, M2), F_q, F_cl)
        for field in ("q_lower", "q_upper", "cl_lower"):
            assert ordered(getattr(many, field), getattr(few, field))

    @given(image_spaces(), fidelities, copies)
    @example(ImageSpace.uniform(6), 0.5, 10**308)  # 2M overflows; F = 1 once gave nan
    def test_exact_endpoints(self, space, F, M):
        perfect = bounds(space, M, 0.0, F)
        assert perfect.q_lower == 0.0 and perfect.q_upper == 0.0
        assert bounds(space, M, 0.0, 0.0).cl_lower == 0.0
        blind = bounds(space, M, 1.0, 1.0)
        size = math.exp(space.log_pattern_count())
        # every unequal pair counts at F = 1: (|S|^2 - |S|) / (2 |S|^2)
        assert blind.q_lower == pytest.approx((1.0 - 1.0 / size) / 2.0, rel=1e-12)
        if space.kind != "uniform" and size > 1.5:
            assert blind.q_upper == 1.0

    @given(st.integers(1, 60), st.booleans(), fidelities, fidelities, copies)
    def test_singleton_spaces_are_error_free(self, m, ones, f1, f2, M):
        k = m if ones else 0
        space = ImageSpace.cpf(m, k)
        assert space == ImageSpace.bcpf(m, [k])
        rep = bounds(space, M, min(f1, f2), max(f1, f2))
        assert (rep.q_lower, rep.q_upper, rep.cl_lower) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("M", [1, 10, 100, 1000, 5000])
    @pytest.mark.parametrize(
        "pair",
        [EnvironmentPair.thermal(0.99, 18.5, 20.2), EnvironmentPair.additive(0.02, 0.01)],
        ids=["thermal", "additive"],
    )
    @pytest.mark.parametrize(
        "space",
        [ImageSpace.uniform(6), ImageSpace.cpf(8, 3), ImageSpace.bcpf(9, [2, 3, 4])],
        ids=["uniform6", "cpf8-3", "bcpf9-234"],
    )
    def test_lower_bounds_below_exact_nn_error(self, space, pair, M):
        # pixel-by-pixel measurement with nearest-neighbour decoding is one
        # strategy of each kind, so its exact error at the upper pixel error
        # F^M / 2 cannot fall below the lower bound on the optimal error
        F_q, F_cl = fidelity_choi_inf(pair), fidelity_classical(pair)
        patterns = space_patterns(space)
        rep = bounds(space, M, F_q, F_cl)
        assert exact_nn_error(patterns, pixel_error_bounds(F_q, M)[1]) >= rep.q_lower
        assert exact_nn_error(patterns, pixel_error_bounds(F_cl, M)[1]) >= rep.cl_lower


# any float outside [0, 1], infinities and NaN included
outside = st.one_of(
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0, exclude_min=True),
    st.just(math.nan),
)


class TestFidelityContract:
    @given(image_spaces(), outside, fidelities, st.booleans())
    def test_bounds_rejects_fidelity_outside_unit_interval(self, space, bad, good, quantum_bad):
        F_q, F_cl = (bad, good) if quantum_bad else (good, bad)
        # raised before any work: no warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                bounds(space, 1, F_q, F_cl)

    @given(image_spaces(), fidelities, fidelities, copies)
    def test_bounds_warns_only_when_quantum_fidelity_exceeds_classical(self, space, F_q, F_cl, M):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bounds(space, M, F_q, F_cl)
        assert [type(w.message) for w in caught] == ([UserWarning] if F_q > F_cl else [])

    @given(outside, fidelities, st.booleans())
    @example(1.5, 0.0, False)
    @example(-0.5, 0.0, False)
    def test_min_rel_probe_validates_both_fidelities(self, bad, good, quantum_bad):
        with pytest.raises(ValueError):
            min_rel_probe_uniform(*((bad, good) if quantum_bad else (good, bad)))

    @given(outside, copies)
    def test_pixel_error_bounds_rejects_fidelity_outside_unit_interval(self, bad, M):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            pixel_error_bounds(bad, M)

    @pytest.mark.parametrize(
        "functional",
        [
            lambda f: pair_sum(6, range(7), range(7), f),
            lambda f: pair_sum(6, [2], [2], f),
            lambda f: pair_sum(6, [2], [3], f),
            lambda f: bcpf_functional(ImageSpace.bcpf(6, [1, 3]), f),
        ],
        ids=["uniform", "cpf", "cross", "bcpf"],
    )
    @given(bad=outside)
    def test_space_functionals_reject_fidelity_outside_unit_interval(self, functional, bad):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            functional(bad)

    @given(fidelities)
    @example(0.0)
    def test_min_rel_probe_without_classical_overlap_is_infinite(self, F_q):
        # F_cl^(2M) > 2^m F_q^M never holds at F_cl = 0
        assert min_rel_probe_uniform(F_q, 0.0) == math.inf
