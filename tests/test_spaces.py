"""Image-space sums, through the one primitive, against brute-force enumeration."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from qthermal.spaces import (
    ImageSpace,
    bcpf_functional,
    log_distance_counts,
    log_hamming_sum,
    log_pair_counts,
)

from conftest import (
    brute_bcpf,
    brute_cpf,
    brute_cross,
    brute_distance_counts,
    brute_uniform,
    image_spaces,
    pair_sum,
)

F_GRID = (0.0, 0.1, 0.5, 0.9, 1.0)


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestImageSpace:
    def test_full_bcpf_normalises_to_uniform(self):
        sp = ImageSpace.bcpf(3, [0, 1, 2, 3])
        assert sp.kind == "uniform"

    @given(st.integers(1, 12).flatmap(
        lambda m: st.tuples(st.just(m), st.sets(st.integers(0, m), min_size=1))
    ))
    def test_one_description_per_count_set(self, args):
        m, ks = args
        assert ImageSpace.bcpf(m, ks) == ImageSpace(m, tuple(sorted(ks)))
        assert ImageSpace.bcpf(m, range(m + 1)) == ImageSpace.uniform(m)
        k = min(ks)
        assert ImageSpace.cpf(m, k) == ImageSpace.bcpf(m, [k])
        assert log_distance_counts(ImageSpace.cpf(m, k)) is log_distance_counts(ImageSpace.bcpf(m, [k]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageSpace.cpf(4, 5)
        with pytest.raises(ValueError):
            ImageSpace.bcpf(4, [])
        with pytest.raises(ValueError):
            ImageSpace.bcpf(4, [1, 1])
        with pytest.raises(ValueError):
            ImageSpace.uniform(0)
        with pytest.raises(ValueError):
            ImageSpace(4, (2, 1))

    def test_pattern_counts(self):
        assert ImageSpace.uniform(5).log_pattern_count() == pytest.approx(5 * math.log(2))
        assert ImageSpace.cpf(5, 2).log_pattern_count() == pytest.approx(math.log(10))
        assert ImageSpace.bcpf(5, [0, 2]).log_pattern_count() == pytest.approx(math.log(11))


def uniform_sum(m, f):
    """Per-pattern sum over the uniform space: (f+1)^m - 1."""
    return pair_sum(m, range(m + 1), range(m + 1), f) / 2**m


def cpf_sum(m, k, f):
    """Per-pattern sum over the k-CPF space: the terminating series
    sum_{j>=1} C(k,j) C(m-k,j) f^{2j}, zero for k = 0 and k = m."""
    return pair_sum(m, [k], [k], f) / math.comb(m, k)


class TestUniformFunctional:
    def test_spec_values(self):
        assert uniform_sum(3, 1.0) == pytest.approx(7.0, rel=1e-12)
        assert uniform_sum(6, 0.0) == 0.0
        assert uniform_sum(2, 0.5) == pytest.approx(1.25, rel=1e-12)

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("f", F_GRID)
    def test_matches_enumeration(self, m, f):
        assert rel_close(uniform_sum(m, f), brute_uniform(m, f))

    def test_domain(self):
        with pytest.raises(ValueError):
            uniform_sum(3, 1.5)
        with pytest.raises(ValueError):
            uniform_sum(0, 0.5)


class TestCpfFunctional:
    def test_spec_values(self):
        assert cpf_sum(4, 2, 1.0) == pytest.approx(5.0, rel=1e-12)
        assert cpf_sum(4, 2, 0.5) == pytest.approx(1.0625, rel=1e-12)
        assert cpf_sum(6, 0, 0.7) == 0.0
        assert cpf_sum(6, 6, 0.7) == 0.0

    @pytest.mark.parametrize("m", [2, 4, 6, 7])
    @pytest.mark.parametrize("f", F_GRID)
    def test_matches_enumeration(self, m, f):
        for k in range(m + 1):
            assert rel_close(cpf_sum(m, k, f), brute_cpf(m, k, f))

    def test_large_m_no_overflow(self):
        val = cpf_sum(10_000, 3, 0.5)
        assert np.isfinite(val) and val > 0


class TestCrossFunctional:
    def test_spec_values(self):
        assert pair_sum(4, [1], [2], 1.0) == pytest.approx(24.0, rel=1e-12)
        assert pair_sum(3, [0], [1], 0.5) == pytest.approx(1.5, rel=1e-12)
        assert pair_sum(5, [1], [3], 0.0) == 0.0

    def test_symmetric_in_counts(self):
        assert pair_sum(6, [2], [4], 0.3) == pytest.approx(pair_sum(6, [4], [2], 0.3), rel=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 7])
    @pytest.mark.parametrize("f", F_GRID)
    def test_matches_enumeration(self, m, f):
        for k in range(m + 1):
            for l in range(m + 1):
                if k == l:
                    continue
                assert rel_close(pair_sum(m, [k], [l], f), brute_cross(m, k, l, f))


class TestBcpfFunctional:
    def test_full_range_equals_scaled_uniform(self):
        space = ImageSpace.bcpf(3, [0, 1, 2, 3])
        assert bcpf_functional(space, 0.5) == pytest.approx(19.0, rel=1e-12)

    def test_singleton_reduces_to_cpf(self):
        space = ImageSpace.bcpf(6, [2])
        # C(6, 2) times the CPF series sum_{j>=1} C(2,j) C(4,j) f^{2j}
        expected = math.comb(6, 2) * sum(math.comb(2, j) * math.comb(4, j) * 0.4 ** (2 * j) for j in (1, 2))
        assert bcpf_functional(space, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_zero_fidelity(self):
        assert bcpf_functional(ImageSpace.bcpf(5, [1, 3]), 0.0) == 0.0

    @pytest.mark.parametrize("m", [3, 5, 6])
    @pytest.mark.parametrize("f", F_GRID)
    def test_matches_enumeration(self, m, f):
        ks_sets = [(0, 1), (1, m - 1), (0, m), tuple(range(m))]
        for ks in ks_sets:
            space = ImageSpace.bcpf(m, ks)
            assert rel_close(bcpf_functional(space, f), brute_bcpf(m, ks, f))


class TestOverflow:
    def test_sums_beyond_double_range_are_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bcpf_functional(ImageSpace.bcpf(784, range(100, 150)), 0.9) == math.inf


class TestDistanceSpectrum:
    @given(image_spaces())
    def test_matches_enumeration(self, space):
        expected = brute_distance_counts(space.m, space.ks, space.ks)
        counts = np.rint(np.exp(log_distance_counts(space)))
        np.testing.assert_array_equal(counts, expected)

    @given(st.integers(1, 10).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(st.integers(0, m), min_size=1),
            st.sets(st.integers(0, m), min_size=1),
        )
    ))
    def test_pair_counts_match_enumeration(self, args):
        m, ks, ls = args
        counts = np.rint(np.exp(log_pair_counts(m, tuple(ks), tuple(ls))))
        np.testing.assert_array_equal(counts, brute_distance_counts(m, ks, ls))

    @given(image_spaces(max_m=60))
    def test_counts_sum_to_unequal_pairs(self, space):
        log_size = space.log_pattern_count()
        # 30-digit sum of the counts, independent of the library's log_sum_exp
        with mp.workdps(30):
            total = float(mp.log(mp.fsum(mp.exp(v) for v in log_distance_counts(space))))
        if log_size == 0.0:
            assert total == -np.inf
        else:
            # log(|S|^2 - |S|) = 2 log|S| + log(1 - 1/|S|)
            assert total == pytest.approx(2 * log_size + np.log1p(-np.exp(-log_size)), rel=1e-13)

    def test_cached_per_space_and_read_only(self):
        space = ImageSpace.bcpf(30, range(5, 12))
        counts = log_distance_counts(space)
        assert log_distance_counts(ImageSpace.bcpf(30, range(5, 12))) is counts
        with pytest.raises(ValueError):
            counts[0] = 0.0

    def test_evaluator_endpoints(self):
        counts = log_distance_counts(ImageSpace.cpf(8, 3))
        assert log_hamming_sum(counts, -np.inf) == -np.inf
        # f = 1 counts every ordered unequal pair: 56^2 - 56
        assert log_hamming_sum(counts, 0.0) == pytest.approx(math.log(56 * 55), rel=1e-14)
        assert log_hamming_sum(log_distance_counts(ImageSpace.cpf(8, 0)), 0.0) == -np.inf
