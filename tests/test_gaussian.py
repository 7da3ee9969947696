"""Covariance matrices, symplectic spectra and the Gaussian Bures fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from numpy.testing import assert_allclose

import qthermal.gaussian as gaussian
from qthermal.channels import (
    ChannelSpec,
    EnvironmentPair,
    choi_cm,
    fidelity_choi_inf_extrapolated,
)
from qthermal.errors import (
    DimensionMismatchError,
    GaussianStateError,
    NonPhysicalError,
    NonSymmetricError,
)
from qthermal.gaussian import CovarianceMatrix, _fidelity_mp, gaussian_fidelity

from conftest import (
    Z2,
    CutoffTooSmallError,
    UnsupportedStateError,
    eig_fidelity_oracle,
    fock_fidelity_oracle,
    printed_choi_thermal,
    random_cm,
    random_symplectic,
    symplectic_eigenvalues,
    thermal_cm,
    tmsv_cm,
    vacuum_cm,
)


def thermal_pair_closed(n1, n2):
    return 1.0 / (np.sqrt((n1 + 1) * (n2 + 1)) - np.sqrt(n1 * n2))


class TestCovarianceMatrix:
    def test_rejects_asymmetry(self):
        V = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NonSymmetricError):
            CovarianceMatrix(V)

    def test_symmetrises_roundoff(self):
        V = 2.0 * np.eye(2)
        V[0, 1] = 1e-14
        cm = CovarianceMatrix(V)
        assert cm.matrix[0, 1] == cm.matrix[1, 0]

    def test_rejects_nonphysical(self):
        with pytest.raises(NonPhysicalError):
            CovarianceMatrix(0.3 * np.eye(2))

    def test_rejects_nonfinite(self):
        V = np.eye(2)
        V[0, 0] = np.inf
        with pytest.raises(NonPhysicalError):
            CovarianceMatrix(V)

    def test_rejects_odd_dimension(self):
        # a stack of matrices is not a covariance matrix either
        for bad in (np.eye(3), np.broadcast_to(np.eye(2), (2, 2, 2))):
            with pytest.raises(ValueError, match="square 2Nx2N"):
                CovarianceMatrix(bad)


class TestRoundingTolerance:
    """Rounding the entries of a strongly squeezed matrix to double moves its
    symplectic eigenvalues by about eps lambda_max / lambda_min, far beyond
    ``PHYSICALITY_TOL``; physicality is judged to that precision."""

    @staticmethod
    def tolerance(V):
        w = np.linalg.eigvalsh(V)
        spread = gaussian._ROUNDING_MULTIPLE * np.finfo(float).eps * w[-1] / w[0]
        return max(gaussian.PHYSICALITY_TOL, spread)

    @pytest.mark.parametrize(
        "channel, a",
        [(ChannelSpec.additive(0.0), 1e5), (ChannelSpec(0.99, 0.005), 1e6)],
        ids=["additive-1e5", "loss-1e6"],
    )
    def test_squeezed_choi_states_construct(self, channel, a):
        # both raised NonPhysicalError under the absolute 1e-8 tolerance
        assert choi_cm(channel, a).matrix.shape == (4, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 100.0)),
        st.sampled_from([0.0, 1e-9, 0.01, 1.0]),
        st.floats(-0.31, 7.0),
    )
    def test_completely_positive_choi_states_construct(self, tau, excess, log_a):
        # the channel's noise at (or just above) the complete-positivity
        # floor: the purest, most ill-conditioned Choi states
        channel = ChannelSpec(tau, abs(1.0 - tau) / 2.0 + excess)
        assert choi_cm(channel, max(0.5, 10.0**log_a)).matrix.shape == (4, 4)

    @pytest.mark.parametrize("a", [0.5, 10.0, 1e3, 1e4, 1e5])
    def test_pushed_below_half_still_raises(self, a):
        tol = self.tolerance(tmsv_cm(a).matrix)
        nu = 0.5 - 100 * tol
        c = np.sqrt(a * a - nu * nu)
        V = np.block([[a * np.eye(2), c * Z2], [c * Z2, a * np.eye(2)]])
        with pytest.raises(NonPhysicalError):
            CovarianceMatrix(V)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert_allclose(symplectic_eigenvalues(vacuum_cm(1)), [0.5], atol=1e-12)

    def test_thermal_already_williamson(self):
        assert_allclose(symplectic_eigenvalues(thermal_cm(2.0)), [2.5], atol=1e-12)

    def test_tmsv_pure(self):
        assert_allclose(symplectic_eigenvalues(tmsv_cm(3.0)), [0.5, 0.5], atol=1e-10)

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        V = random_cm(3, rng)
        nus = symplectic_eigenvalues(V)
        assert np.all(np.diff(nus) <= 0)

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_symplectic_invariance(self, modes):
        rng = np.random.default_rng(17 + modes)
        for _ in range(5):
            V = random_cm(modes, rng)
            S = random_symplectic(modes, rng)
            before = symplectic_eigenvalues(V)
            after = symplectic_eigenvalues(S @ V @ S.T)
            assert_allclose(after, before, atol=1e-10 * max(1.0, before.max()))


class TestGaussianFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(5)
        for modes in (1, 2):
            V = random_cm(modes, rng)
            assert gaussian_fidelity(V, V) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_thermal_closed_form(self):
        F = gaussian_fidelity(thermal_cm(1.0), thermal_cm(2.0))
        assert F == pytest.approx(1.0 / (np.sqrt(6) - np.sqrt(2)), abs=1e-12)

    def test_both_vacuum(self):
        assert gaussian_fidelity(thermal_cm(0.0), thermal_cm(0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            V1, V2 = random_cm(2, rng), random_cm(2, rng)
            assert abs(gaussian_fidelity(V1, V2) - gaussian_fidelity(V2, V1)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            F = gaussian_fidelity(random_cm(2, rng), random_cm(2, rng))
            assert 0.0 <= F <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_fidelity(vacuum_cm(1), vacuum_cm(2))

    def test_rejects_nonphysical_input(self):
        with pytest.raises(NonPhysicalError):
            gaussian_fidelity(0.3 * np.eye(2), vacuum_cm(1))

    def test_thread_safe_under_concurrent_calls(self):
        # every call shares mpmath's process-global precision under a lock
        from concurrent.futures import ThreadPoolExecutor

        pairs = [(tmsv_cm(1.0), tmsv_cm(2.0)), (thermal_cm(1.0), thermal_cm(2.0))] * 8
        expected = [gaussian_fidelity(a, b) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: gaussian_fidelity(*p), pairs))
        assert got == expected

    def test_pure_state_overlap_tmsv(self):
        # for pure states F^2 equals the Wigner overlap 1/sqrt(det(V1+V2))
        # (vacuum = I/2 units; the same identity reads 2^N/sqrt(det) when
        # covariance matrices are normalised to vacuum = I)
        for a1, a2 in [(0.5, 0.5), (1.0, 3.0), (0.7, 2.2), (5.0, 5.0)]:
            V1, V2 = tmsv_cm(a1), tmsv_cm(a2)
            overlap = 1.0 / np.sqrt(np.linalg.det(V1.matrix + V2.matrix))
            F = gaussian_fidelity(V1, V2)
            assert F**2 == pytest.approx(overlap, abs=1e-10)

    def test_agrees_with_fock_oracle_on_thermal_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n1, n2 = rng.uniform(0.0, 30.0, 2)
            F_cm = gaussian_fidelity(thermal_cm(n1), thermal_cm(n2))
            F_fock = fock_fidelity_oracle(thermal_cm(n1), thermal_cm(n2), 1024)
            assert F_cm == pytest.approx(F_fock, abs=1e-8)

    def test_two_mode_thermal_product(self):
        V1 = np.diag([1.5, 1.5, 2.5, 2.5])
        V2 = np.diag([0.5, 0.5, 3.5, 3.5])
        expected = thermal_pair_closed(1.0, 0.0) * thermal_pair_closed(2.0, 3.0)
        assert gaussian_fidelity(V1, V2) == pytest.approx(expected, abs=1e-10)
        assert fock_fidelity_oracle(V1, V2, 1024) == pytest.approx(expected, abs=1e-9)


NEAR_PURE = 0.5 + 1e-9


class TestExtendedPrecision:
    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2))
    def test_invariant_route_matches_eigensolve(self, seed, modes, near_pure):
        # the first near_pure of the two states have every symplectic eigenvalue
        # 1/2 + 1e-9; the oracle gets the symmetrised matrices the routine sees,
        # since at that margin an ulp of asymmetry moves F by ~1e-13
        rng = np.random.default_rng(seed)
        V1, V2 = (
            CovarianceMatrix(random_cm(modes, rng, np.full(modes, NEAR_PURE) if i < near_pure else None)).matrix
            for i in range(2)
        )
        assert gaussian_fidelity(V1, V2) == pytest.approx(
            eig_fidelity_oracle(V1, V2), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("a", [0.6, 0.8350305354743214, 3.0, 1e3, 2e3])
    def test_pure_components_match_eigensolve(self, a):
        # a pure-loss Choi state and a pure pair: rounding leaves the auxiliary
        # u_j = 4 v_j^2 - 1 at +-1e-17, where sqrt(max(u_j, 0)) moves F by 1e-9.
        # The benchmark's thermal Choi pair is strongly squeezed at a = 1e3
        # and 2e3 (V1 + V2 conditioned like a), where a double-precision
        # inverse loses ~2e-11 of the fidelity.
        pure = choi_cm(ChannelSpec(0.3, 0.35), a).matrix
        mixed = choi_cm(ChannelSpec(0.3, 0.42), a).matrix
        thermal = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        pairs = [
            (mixed, pure),
            (tmsv_cm(a).matrix, tmsv_cm(2 * a).matrix),
            (choi_cm(thermal.target, a).matrix, choi_cm(thermal.background, a).matrix),
        ]
        for V1, V2 in pairs:
            assert gaussian_fidelity(V1, V2) == pytest.approx(
                eig_fidelity_oracle(V1, V2), rel=1e-15, abs=0.0
            )

    def test_one_and_two_modes_take_no_eigensolve(self, monkeypatch):
        pair = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        squeezed = np.diag([0.5 * np.exp(1.2), 0.5 * np.exp(-1.2)])
        pure_pairs = [(vacuum_cm(1).matrix, squeezed), (tmsv_cm(1.0).matrix, tmsv_cm(2.0).matrix)]
        expected = [eig_fidelity_oracle(V1, V2) for V1, V2 in pure_pairs]
        routed = []

        def spy(V1, V2, *args):
            routed.append(len(V1))
            return _fidelity_mp(V1, V2, *args)

        def no_eig(*args, **kwargs):
            raise AssertionError("mp.eig called")

        monkeypatch.setattr(gaussian, "_fidelity_mp", spy)
        monkeypatch.setattr(mp, "eig", no_eig)
        assert fidelity_choi_inf_extrapolated(pair) == pytest.approx(
            printed_choi_thermal(20.2, 18.5), rel=1e-12, abs=0.0
        )
        for (V1, V2), want in zip(pure_pairs, expected):
            assert gaussian_fidelity(V1, V2) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert routed == [2, 4]

    def test_three_modes_take_the_eigensolve(self):
        # the library reads the spectrum of one- and two-mode states from
        # matrix invariants and rejects more modes; the eigensolve oracle
        # covers three, where mode 1 is vacuum in V1 and within 1e-9 of it in V2
        V1 = np.diag(np.repeat([0.5, 1.5, 2.5], 2))
        V2 = np.diag(np.repeat([0.5 + 1e-9, 3.5, 1.0], 2))
        with pytest.raises(GaussianStateError, match="one or two modes"):
            gaussian_fidelity(V1, V2)
        F = eig_fidelity_oracle(V1, V2)
        assert F == pytest.approx(fock_fidelity_oracle(V1, V2, 1024), abs=1e-9)
        assert F == pytest.approx(
            thermal_pair_closed(0.0, 1e-9) * thermal_pair_closed(1.0, 3.0) * thermal_pair_closed(2.0, 0.5),
            rel=1e-12,
        )


class TestFockOracle:
    def test_identical_thermal(self):
        F = fock_fidelity_oracle(thermal_cm(1.0), thermal_cm(1.0), 256)
        assert F == pytest.approx(1.0, abs=1e-9)

    def test_thermal_one_two(self):
        F = fock_fidelity_oracle(thermal_cm(1.0), thermal_cm(2.0), 512)
        assert F == pytest.approx(1.0 / (np.sqrt(6) - np.sqrt(2)), abs=1e-7)

    def test_vacuum_versus_thermal(self):
        F = fock_fidelity_oracle(thermal_cm(0.0), thermal_cm(5.0), 512)
        assert F == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-9)

    def test_monotone_in_cutoff(self):
        vals = [
            fock_fidelity_oracle(thermal_cm(2.5), thermal_cm(4.0), c)
            for c in (64, 128, 256, 512)
        ]
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] > vals[0]

    def test_rejects_correlated_state(self):
        with pytest.raises(UnsupportedStateError):
            fock_fidelity_oracle(tmsv_cm(2.0), tmsv_cm(2.0), 64)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            fock_fidelity_oracle(thermal_cm(30.0), thermal_cm(30.0), 10)
