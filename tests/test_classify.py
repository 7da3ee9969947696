"""Noise sampling, nearest-neighbour classification and error estimation."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qthermal.bounds import pixel_error_bounds
from qthermal.channels import EnvironmentPair, fidelity_choi_inf, fidelity_classical
from qthermal.classify import (
    NOISE_DERIVATIONS,
    NoiseModel,
    advantage_regions,
    endpoint_noise_models,
    estimate_error,
    nn_predictor,
    sample_noisy,
    snapp_fit,
    trial_stream,
)
from qthermal.classify import _NN_ROWS, _snapp_design
from qthermal.data import BinaryImageDataset, synthetic_digits
from qthermal.errors import (
    EmptyEvaluationSetError,
    EmptyTrainingSetError,
    InsufficientSamplesError,
    ShapeMismatchError,
)
from qthermal.spaces import ImageSpace

from conftest import exact_nn_error, space_patterns


def make_dataset(images, labels, width=None):
    images = np.asarray(images, np.uint8)
    width = width or images.shape[1]
    return BinaryImageDataset(
        images=images,
        labels=np.asarray(labels, np.int64),
        height=1,
        width=images.shape[1],
    )


class TestNoiseModel:
    def test_probability_domain(self):
        with pytest.raises(ValueError):
            NoiseModel(0.7)

    def test_endpoint_consistency(self):
        # bit for bit the two intervals at the Choi and vacuum-probe fidelities
        pairs = (EnvironmentPair.additive(0.02, 0.01), EnvironmentPair.thermal(0.99, 18.5, 20.2))
        for pair, M in itertools.product(pairs, (1, 10, 1000)):
            models = endpoint_noise_models(pair, M)
            q_lo, q_hi = pixel_error_bounds(fidelity_choi_inf(pair), M)
            cl_lo, cl_hi = pixel_error_bounds(fidelity_classical(pair), M)
            assert list(models) == list(NOISE_DERIVATIONS)
            assert {tag: m.flip_probability for tag, m in models.items()} == {
                "classical-lower": cl_lo,
                "classical-upper": cl_hi,
                "quantum-lower": q_lo,
                "quantum-upper": q_hi,
            }

    def test_four_endpoints(self):
        models = endpoint_noise_models(EnvironmentPair.additive(0.02, 0.01), 20)
        assert set(models) == {
            "classical-lower",
            "classical-upper",
            "quantum-lower",
            "quantum-upper",
        }
        assert models["quantum-upper"].flip_probability < models["classical-upper"].flip_probability


class TestSampleNoisy:
    def test_zero_probability_is_identity(self):
        img = np.array([0, 1, 1, 0], np.uint8)
        out = sample_noisy(img, NoiseModel(0.0), trial_stream(1, 2))
        assert np.array_equal(out, img)

    def test_half_probability_uniform_chi2(self):
        # m = 4, 1e5 samples; chi-squared against uniform over 16 patterns,
        # 15 dof, fixed stream; 99.9% quantile is 37.7
        rng = trial_stream(42, 0)
        noise = NoiseModel(0.5)
        img = np.zeros(4, np.uint8)
        n = 100_000
        flips = rng.random((n, 4)) < noise.flip_probability
        codes = (flips.astype(np.uint8) * [1, 2, 4, 8]).sum(axis=1)
        counts = np.bincount(codes, minlength=16)
        expected = n / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 37.7

    def test_flip_count_concentration(self):
        # mean flips over 1e4 trials of a 784-pixel image at p = 0.1
        p, m, trials = 0.1, 784, 10_000
        img = np.zeros(m, np.uint8)
        noise = NoiseModel(p)
        total = 0
        for t in range(trials):
            total += int(sample_noisy(img, noise, trial_stream(7, t)).sum())
        mean = total / trials
        sigma = np.sqrt(m * p * (1 - p) / trials)
        assert abs(mean - m * p) < 3 * sigma

    def test_deterministic_given_stream(self):
        img = np.ones(100, np.uint8)
        a = sample_noisy(img, NoiseModel(0.3), trial_stream(5, 1, 2))
        b = sample_noisy(img, NoiseModel(0.3), trial_stream(5, 1, 2))
        assert np.array_equal(a, b)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.5),
        st.integers(1, 6),
        st.integers(1, 40),
    )
    def test_flip_masks_nest(self, seed, p1, p2, rows, cols):
        # common random numbers: one stream flips a superset of the pixels
        # at any larger flip probability
        p_lo, p_hi = sorted((p1, p2))
        images = np.zeros((rows, cols), np.uint8)
        lo = sample_noisy(images, NoiseModel(p_lo), trial_stream(seed, 3))
        hi = sample_noisy(images, NoiseModel(p_hi), trial_stream(seed, 3))
        assert np.all(lo <= hi)


class TestNNClassify:
    def test_exact_match_returns_own_label(self):
        train = make_dataset([[0, 0, 0], [1, 1, 1]], [7, 2])
        assert nn_predictor(train)(np.array([[1, 1, 1]], np.uint8)).tolist() == [2]

    def test_distance_ordering(self):
        train = make_dataset([[0, 0, 0], [1, 1, 1]], [0, 1])
        assert nn_predictor(train)(np.array([[0, 0, 1]], np.uint8)).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        train = make_dataset([[0, 0], [1, 1]], [0, 1])
        assert nn_predictor(train)(np.array([[0, 1]], np.uint8)).tolist() == [0]

    def test_empty_training(self):
        train = make_dataset(np.zeros((0, 3), np.uint8), [])
        with pytest.raises(EmptyTrainingSetError):
            nn_predictor(train)


# query counts on either side of one and two scoring row blocks
ROW_BLOCK_COUNTS = [_NN_ROWS - 1, _NN_ROWS, _NN_ROWS + 1, 2 * _NN_ROWS + 3]


@st.composite
def nn_cases(draw):
    """(training, queries) binary arrays for the packed nearest-neighbour GEMM.

    Pixel counts reach 4096, so the largest norm needs up to 13 bits and a
    packed column holds as few as 4 images; an all-zero training set gives
    the 1-bit floor.  Training sizes are arbitrary, so the last block is
    usually padded; optional all-ones and duplicated rows put the largest
    norm on a bit boundary and force ties.  Query counts reach past one and
    two scoring row blocks, so a row dropped, repeated or moved at a block
    boundary shows.
    """
    m = draw(st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 1023, 1024, 4095, 4096])))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = (rng.random((n, m)) < draw(st.sampled_from([0.0, 0.05, 0.5, 0.95]))).astype(np.uint8)
    if draw(st.booleans()):
        train[draw(st.integers(0, n - 1))] = 1
    if draw(st.booleans()):
        train[draw(st.integers(0, n - 1))] = train[draw(st.integers(0, n - 1))]
    count = draw(st.one_of(st.integers(1, 6), st.sampled_from(ROW_BLOCK_COUNTS)))
    queries = rng.random((count, m)) < draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    queries = queries.astype(np.uint8)
    if draw(st.booleans()):
        queries[0] = train[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        queries[-1] = train[draw(st.integers(0, n - 1))]
    return train, queries


def all_ones_case(m):
    """Nine random images, one all ones and two equal, so the last block is
    padded; queries hit the all-ones image and the duplicate exactly."""
    rng = np.random.default_rng(m)
    train = (rng.random((9, m)) < 0.5).astype(np.uint8)
    train[4] = 1
    train[7] = train[2]
    queries = np.vstack([np.ones(m, np.uint8), train[7], rng.random((3, m)) < 0.5])
    return train, queries.astype(np.uint8)


def row_block_case(count):
    """Eleven distinct images, so the last block is padded, queried with
    ``count`` exact copies in a shuffled order: every row has one nearest
    image, so any row moved across a block boundary changes the answer."""
    rng = np.random.default_rng(count)
    train = (rng.random((11, 64)) < 0.5).astype(np.uint8)
    train[:, :4] = np.unpackbits(np.arange(11, dtype=np.uint8)[:, None], axis=1)[:, 4:]
    return train, train[rng.integers(0, len(train), count)]


class TestNNPredictor:
    @given(nn_cases())
    # every norm 0: the 1-bit floor, 53 images per column
    @example((np.zeros((60, 5), np.uint8), np.array([[0, 0, 0, 0, 0], [1, 1, 0, 1, 0]], np.uint8)))
    # all-ones norms 4095 (largest 12-bit digit) and 4096 (13 bits), 4 per column
    @example(all_ones_case(4095))
    @example(all_ones_case(4096))
    @example(row_block_case(ROW_BLOCK_COUNTS[0]))
    @example(row_block_case(ROW_BLOCK_COUNTS[1]))
    @example(row_block_case(ROW_BLOCK_COUNTS[2]))
    @example(row_block_case(ROW_BLOCK_COUNTS[3]))
    def test_matches_hamming_argmin(self, case):
        train, queries = case
        # labels are training indices, so duplicates carry different labels
        # and only the lowest-index tie rule passes
        predict = nn_predictor(make_dataset(train, np.arange(len(train))))
        distances = np.count_nonzero(queries[:, None, :] != train[None, :, :], axis=2)
        assert np.array_equal(predict(queries), np.argmin(distances, axis=1))

    @pytest.mark.parametrize("pixel", [2, -1, 0.5, np.nan])
    def test_non_binary_batch_rejected(self, pixel):
        predict = nn_predictor(make_dataset([[0, 1, 1], [1, 0, 0]], [0, 1]))
        batch = np.array([[0.0, 1.0, 1.0], [1.0, pixel, 0.0]])
        with pytest.raises(ValueError, match="binary"):
            predict(batch)

    @pytest.mark.parametrize(
        "batch",
        [np.array([0, 1, 1]), np.zeros((2, 4)), np.zeros((2, 1, 3)), np.zeros((2, 3, 1))],
        ids=["one-image", "wrong-width", "3d", "3d-trailing-axis"],
    )
    def test_batch_not_b_by_pixels_rejected(self, batch):
        # checked before the binarity check: a 2 would otherwise raise ValueError
        predict = nn_predictor(make_dataset([[0, 1, 1], [1, 0, 0]], [0, 1]))
        with pytest.raises(ShapeMismatchError, match=r"must be \(B, 3\)"):
            predict(batch + 2)


class TestEstimateError:
    def test_noiseless_subset_is_exact_zero(self, digits_small):
        train, _ = digits_small
        subset = train.subset(np.arange(40))
        est = estimate_error(train, subset, NoiseModel(0.0), trials=3, master_seed=1)
        assert est.mean == 0.0

    def test_maximal_noise_ten_classes(self, digits_small):
        train, evaluation = digits_small
        est = estimate_error(train, evaluation, NoiseModel(0.5), trials=20, master_seed=2)
        sigma = max(est.stderr, 1e-9)
        assert abs(est.mean - 0.9) < 3.5 * np.sqrt(0.9 * 0.1 / est.total_samples) + 3 * sigma

    def test_monotone_in_training_size(self):
        evaluation = synthetic_digits(150, seed=21, split="evaluation")
        noise = NoiseModel(0.08)
        prev = None
        for i, T in enumerate((100, 1000, 4000)):
            train = synthetic_digits(T, seed=31)
            est = estimate_error(train, evaluation, noise, trials=8, master_seed=3)
            if prev is not None:
                assert est.mean <= prev.mean + 2 * (est.stderr + prev.stderr)
            prev = est

    def test_monotone_in_flip_probability(self, digits_small):
        train, evaluation = digits_small
        f, M = 0.97, 20
        lo, hi = pixel_error_bounds(f, M)
        e_lo = estimate_error(train, evaluation, NoiseModel(lo), trials=10, master_seed=4)
        e_hi = estimate_error(train, evaluation, NoiseModel(hi), trials=10, master_seed=4)
        assert e_lo.mean <= e_hi.mean + 2 * (e_lo.stderr + e_hi.stderr)

    def test_empty_sets(self, digits_small):
        train, evaluation = digits_small
        empty = train.subset(np.array([], dtype=int))
        with pytest.raises(EmptyTrainingSetError):
            estimate_error(empty, evaluation, NoiseModel(0.1), 1, 0)
        with pytest.raises(EmptyEvaluationSetError):
            estimate_error(train, empty, NoiseModel(0.1), 1, 0)

    @pytest.mark.parametrize("p", [0.07, 0.2])
    @pytest.mark.parametrize(
        "space",
        [ImageSpace.uniform(6), ImageSpace.cpf(8, 3), ImageSpace.bcpf(9, [2, 3, 4])],
        ids=["uniform6", "cpf8-3", "bcpf9-234"],
    )
    def test_matches_exact_enumeration(self, space, p):
        # training = evaluation = the whole space, each pattern its own class
        patterns = space_patterns(space)
        ds = make_dataset(patterns, np.arange(len(patterns)))
        est = estimate_error(ds, ds, NoiseModel(p), trials=400, master_seed=0)
        exact = exact_nn_error(patterns, p)
        assert abs(est.mean - exact) <= 4 * est.stderr, (est.mean, est.stderr, exact)


class TestSnappFit:
    def test_roundtrip_recovery(self):
        m = 4
        Ts = np.array([10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000], float)
        truth = np.array([0.05, 0.3, -0.2, 0.15, -0.04])
        E = _snapp_design(Ts, m) @ truth
        fit = snapp_fit(list(zip(Ts, E)), m)
        assert fit.e_inf == pytest.approx(truth[0], rel=1e-6)
        np.testing.assert_allclose(fit.coefficients, truth[1:], rtol=1e-6)
        assert fit.residual_rms < 1e-10
        assert not fit.clipped

    def test_constant_samples(self):
        Ts = [10, 100, 1000, 10000, 100000, 500000]
        fit = snapp_fit([(t, 0.25) for t in Ts], m=9)
        assert fit.e_inf == pytest.approx(0.25, abs=1e-9)
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-7)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            snapp_fit([(10, 0.1), (100, 0.05), (1000, 0.02), (1000, 0.02)], m=4)

    def test_negative_asymptote_clipped(self):
        m = 4
        Ts = np.array([10, 30, 100, 300, 1000, 3000, 10000], float)
        truth = np.array([-0.02, 0.5, 0.1, -0.05, 0.01])
        E = _snapp_design(Ts, m) @ truth
        fit = snapp_fit(list(zip(Ts, E)), m)
        assert fit.clipped and fit.e_inf == 0.0
        # the reported model stays self-consistent after clipping
        pred = _snapp_design(Ts, m) @ np.concatenate([[fit.e_inf], fit.coefficients])
        assert np.sqrt(np.mean((E - pred) ** 2)) == pytest.approx(fit.residual_rms, rel=1e-9)

    def test_singular_design_gate(self):
        from qthermal.classify import _least_squares
        from qthermal.errors import SingularDesignError

        # with T >= 1 the basis columns are always positive, so the gate is
        # defensive; a zero column trips it directly, and two proportional
        # columns trip the rank check
        A = np.column_stack([np.ones(6), np.zeros(6)])
        with pytest.raises(SingularDesignError, match="zero column"):
            _least_squares(A, np.ones(6))
        A = np.column_stack([np.ones(6), np.arange(6.0), 3.0 * np.ones(6)])
        with pytest.raises(SingularDesignError, match="rank 2 < 3"):
            _least_squares(A, np.ones(6))

    def test_invalid_pixel_count(self):
        with pytest.raises(ValueError):
            snapp_fit([(t, 0.1) for t in (10, 100, 1000, 10000, 100000)], m=0)


class TestAdvantageRegions:
    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one_before_any_work(
        self, digits_small, monkeypatch, threads
    ):
        import qthermal.classify as classify

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the thread count was checked")

        monkeypatch.setattr(classify, "fidelity_choi_inf", no_work)
        monkeypatch.setattr(classify, "estimate_error", no_work)
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        with pytest.raises(ValueError, match="threads"):
            advantage_regions(train, evaluation, pair, [10], trials=1, master_seed=0, threads=threads)

    @pytest.mark.parametrize(
        "trials, n_eval, error, message",
        [
            (0, 100, ValueError, "trials must be >= 1, got 0"),
            (2, 0, EmptyEvaluationSetError, "evaluation set is empty"),
        ],
        ids=["no_trials", "empty_evaluation"],
    )
    def test_rejects_empty_estimate_before_any_predictor(
        self, digits_small, trials, n_eval, error, message
    ):
        train, evaluation = digits_small
        built = []

        def factory(noise):
            built.append(noise)
            return nn_predictor(train)

        pair = EnvironmentPair.additive(0.02, 0.01)
        with pytest.raises(error, match=message):
            advantage_regions(
                train, evaluation.subset(np.arange(n_eval)), pair, [10, 40], trials=trials,
                master_seed=0, threads=2, predictor_factory=factory,
            )
        assert built == []

    def test_identical_channels_no_advantage(self, digits_small):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.02)
        rows = advantage_regions(train, evaluation, pair, [5], trials=4, master_seed=8)
        row = rows[0]
        means = [row.e_cl_low.mean, row.e_cl_up.mean, row.e_q_low.mean, row.e_q_up.mean]
        assert max(means) - min(means) <= 4 * row.stderr_max + 0.05
        assert row.de_min <= 0.0 + 4 * row.stderr_max

    def test_p_override_zero_on_subset(self, digits_small):
        train, _ = digits_small
        subset = train.subset(np.arange(30))
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(
            train, subset, pair, [10], trials=2, master_seed=1, p_override=0.0
        )
        row = rows[0]
        assert row.e_cl_low.mean == row.e_q_up.mean == 0.0
        assert row.de_min == row.de_max == 0.0

    def test_endpoints_share_uniforms(self, digits_small):
        # with one flip probability everywhere, common random numbers make
        # the four endpoint estimates identical
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        row = advantage_regions(
            train, evaluation, pair, [10], trials=3, master_seed=2, p_override=0.2
        )[0]
        assert row.e_cl_low.mean > 0.0
        assert row.e_cl_low == row.e_cl_up == row.e_q_low == row.e_q_up

    def test_p_override_runs_one_job_per_M(self, digits_small):
        # the four endpoints share one model and one seed per M, so one
        # predictor and one estimate serve all four columns
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        nn = nn_predictor(train)
        built = []

        def factory(noise):
            built.append(noise)
            return nn

        rows = advantage_regions(
            train, evaluation, pair, [10, 40], trials=3, master_seed=6,
            threads=2, predictor_factory=factory, p_override=0.2,
        )
        assert built == [NoiseModel(0.2)] * 2
        for mi, row in enumerate(rows):
            seed = trial_stream(6, mi).integers(2**63)
            expected = estimate_error(train, evaluation, NoiseModel(0.2), 3, seed)
            assert expected.mean > 0.0
            assert row.e_cl_low == row.e_cl_up == row.e_q_low == row.e_q_up == expected
        assert rows == advantage_regions(
            train, evaluation, pair, [10, 40], trials=3, master_seed=6, p_override=0.2
        )

    def test_pixel_probabilities_recorded(self, digits_small):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(train, evaluation, pair, [10, 40], trials=2, master_seed=1)
        for row, M in zip(rows, (10, 40)):
            assert row.M == M
            assert row.p_q_low <= row.p_q_up
            assert row.p_cl_low <= row.p_cl_up
            assert row.p_q_up < row.p_cl_up

    def test_each_column_matches_exact_enumeration(self):
        # training = evaluation = every CPF(8, 3) pattern, each its own class,
        # so each column's expected value is the exact NN error at its flip
        # probability; the exact variance keeps a zero estimate of a tiny
        # error from dividing by a zero sample variance
        patterns = space_patterns(ImageSpace.cpf(8, 3))
        ds = make_dataset(patterns, np.arange(len(patterns)))
        pair = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        rows = advantage_regions(ds, ds, pair, [1000, 2500], trials=200, master_seed=3, threads=2)
        for row in rows:
            for p, est in (
                (row.p_cl_low, row.e_cl_low),
                (row.p_cl_up, row.e_cl_up),
                (row.p_q_low, row.e_q_low),
                (row.p_q_up, row.e_q_up),
            ):
                exact = exact_nn_error(patterns, p)
                assert 0.01 < exact < 0.99, (row.M, p, exact)
                sigma = np.sqrt(exact * (1.0 - exact) / est.total_samples)
                assert abs(est.mean - exact) <= 4 * sigma, (row.M, p, est.mean, exact)

    def test_one_predictor_per_endpoint_and_thread_invariance(self, digits_small):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        nn = nn_predictor(train)

        def run(threads):
            built = []

            def factory(noise):
                built.append(noise)
                return nn

            rows = advantage_regions(
                train, evaluation, pair, [10, 40], trials=3, master_seed=6,
                threads=threads, predictor_factory=factory,
            )
            return rows, built

        rows1, built1 = run(1)
        rows4, built4 = run(4)
        # the eight endpoint models of M = 10 and 40 are distinct
        expected = Counter(m for M in (10, 40) for m in endpoint_noise_models(pair, M).values())
        assert len(expected) == 8
        assert Counter(built1) == Counter(built4) == expected
        assert rows1 == rows4
        assert any(row.e_cl_up.mean > 0.0 for row in rows1)
