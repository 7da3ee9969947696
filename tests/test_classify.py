"""Noise sampling, nearest-neighbour classification and error estimation."""

import itertools
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from qthermal.data import _FLIP_ROWS, BinaryImageDataset, flip_rows, synthetic_digits
from qthermal.errors import (
    EmptyEvaluationSetError,
    EmptyTrainingSetError,
    InsufficientSamplesError,
    ShapeMismatchError,
)
from qthermal.spaces import ImageSpace

from conftest import (
    all_patterns,
    bayes_error,
    block_digit_floor,
    block_digit_templates,
    exact_nn_error,
    floor_slack,
    head,
    nn_factory,
    space_patterns,
)


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


# batch sizes around one and two blocks of uniforms, and the empty batch
FLIP_BATCHES = [0, _FLIP_ROWS - 1, _FLIP_ROWS, _FLIP_ROWS + 1, 2 * _FLIP_ROWS + 3]


@st.composite
def flip_cases(draw):
    """(images, p, seed) for one image, a (B, m) or a (B, H, W) batch.  The
    named flip probabilities include the two smallest positive floats of
    interest, which flip only where a uniform is exactly 0."""
    batch = draw(st.one_of(st.integers(0, 5), st.sampled_from(FLIP_BATCHES)))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(h * w,), (batch, h * w), (batch, h, w)]))
    seed = draw(st.integers(0, 2**32 - 1))
    images = (np.random.default_rng(seed).random(shape) < 0.5).astype(np.uint8)
    p = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5]), st.floats(0.0, 0.5)))
    return images, p, seed


class TestSampleNoisy:
    @given(flip_cases())
    @example((np.ones((2 * _FLIP_ROWS + 3, 7, 5), np.uint8), 0.5, 1))
    @example((np.zeros((0, 9), np.uint8), 0.3, 2))
    def test_matches_one_full_draw(self, case):
        # flipping in blocks of rows consumes the stream as one
        # images.shape draw does, so both routes equal that reference
        images, p, seed = case
        before = images.copy()
        expected = images ^ (trial_stream(seed, 1).random(images.shape) < p)
        noisy = sample_noisy(images, NoiseModel(p), trial_stream(seed, 1))
        assert noisy.dtype == np.uint8 and np.array_equal(noisy, expected)
        assert np.array_equal(images, before)  # the input is not flipped
        pixels = int(np.prod(images.shape[1:])) if images.ndim > 1 else images.size
        flip_rows(images.reshape(-1, pixels), p, trial_stream(seed, 1))
        assert np.array_equal(images, expected)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-300, 0.01, 0.5]),
        st.one_of(st.integers(1, 3 * _FLIP_ROWS + 5), st.just(784)),
    )
    def test_one_image_flips_as_a_one_row_batch(self, seed, p, pixels):
        # one image is flipped as a column of one-pixel rows, whose uniforms
        # are those of the one-row batch, drawn from the same stream
        image = (np.random.default_rng(seed).random(pixels) < 0.5).astype(np.uint8)
        single = sample_noisy(image, NoiseModel(p), trial_stream(seed, 4))
        batch = sample_noisy(image[None, :], NoiseModel(p), trial_stream(seed, 4))
        assert single.shape == image.shape
        assert np.array_equal(single, batch[0])

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


@st.composite
def bit_width_cases(draw):
    """(training, queries) whose largest training norm has exactly ``bits``
    bits, 1 to 12: scores are int8 up to 6 bits and int16 above.  The norm
    is the smallest or largest of its width.  Sets are tiny, and from 5 bits
    up their last packed block often ends in padding slots; duplicated
    training rows and queries equal to training rows force ties."""
    bits = draw(st.integers(1, 12))
    top = draw(st.sampled_from([1 << (bits - 1), (1 << bits) - 1]))
    m = top + draw(st.integers(0, 3))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = np.zeros((n, m), np.uint8)
    for row in train:
        row[rng.choice(m, rng.integers(0, top + 1), replace=False)] = 1
    train[0] = np.arange(m) < top
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        train[draw(st.integers(1, n - 1))] = train[draw(st.integers(0, n - 1))]
    queries = (rng.random((draw(st.integers(1, 8)), m)) < rng.random()).astype(np.uint8)
    queries[: draw(st.integers(0, len(queries)))] = train[rng.integers(0, n)]
    assert int(train.sum(axis=1).max()).bit_length() == bits
    return train, queries


def padded_top_norm_case(top):
    """Nine images, the first of norm ``top``, so 53 // bits images per
    column leave padding slots that must score above every real image, the
    largest padding score being top + 1; queries copy the first image."""
    rng = np.random.default_rng(top)
    train = (rng.random((9, top)) < 0.5).astype(np.uint8)
    train[0] = 1
    return train, np.vstack([train[0], train[0], rng.random((2, top)) < 0.5]).astype(np.uint8)


class TestNNPredictor:
    @given(bit_width_cases())
    # largest norms of 6 and 7 bits, on either side of the int8/int16 switch
    @example(padded_top_norm_case(63))
    @example(padded_top_norm_case(127))
    def test_matches_hamming_argmin_at_every_bit_width(self, case):
        train, queries = case
        predict = nn_predictor(make_dataset(train, np.arange(len(train))))
        distances = np.count_nonzero(queries[:, None, :] != train[None, :, :], axis=2)
        # argmin takes the lowest index on ties, as nn_predictor must
        assert np.array_equal(predict(queries), np.argmin(distances, axis=1))

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
        subset = head(train, 40)
        est = estimate_error(train, subset, NoiseModel(0.0), trials=3, master_seed=1)
        assert est.mean == 0.0

    def test_maximal_noise_ten_classes(self, digits_small):
        train, evaluation = digits_small
        est = estimate_error(train, evaluation, NoiseModel(0.5), trials=20, master_seed=2)
        sigma = max(est.stderr, 1e-9)
        assert abs(est.mean - 0.9) < 3.5 * np.sqrt(0.9 * 0.1 / (est.trials * est.evaluations)) + 3 * sigma

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
        empty = head(train, 0)
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


@st.composite
def template_mixtures(draw):
    """A few labelled templates of 4 to 6 pixels, their mixture weights and a
    flip probability q."""
    m = draw(st.integers(4, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    count = draw(st.integers(2, 6))
    templates = rng.integers(0, 2, (count, m))
    labels = rng.integers(0, 3, count)
    return templates, labels, rng.dirichlet(np.ones(count)), draw(st.floats(0.02, 0.98))


def enumerated_posterior_error(templates, labels, weights, q):
    """1 - max_c P(c | y) for every pattern y of m pixels (indexed by its bit
    code, as ``all_patterns`` orders them), from the joint P(c, y) built by
    enumerating every flip pattern e of every template: y = t XOR e."""
    m = templates.shape[1]
    pop = all_patterns(m).sum(axis=1)
    flip_weights = q**pop * (1 - q) ** (m - pop)
    joint = np.zeros((labels.max() + 1, 2**m))
    for code, c, w in zip(templates @ (1 << np.arange(m)), labels, weights):
        joint[c, code ^ np.arange(2**m)] += w * flip_weights
    # the mass of every class but the likeliest, summed without cancellation
    return np.sort(joint, axis=0)[:-1].sum(axis=0) / joint.sum(axis=0)


@pytest.fixture(scope="module")
def floor_digits():
    return synthetic_digits(1000, seed=10), synthetic_digits(100, seed=11, split="evaluation")


@pytest.fixture(scope="module")
def floor_cnn(floor_digits):
    """A default network trained on the clean training digits; its clean error
    is ~0.04, so it has learned."""
    from qthermal import cnn

    net = cnn.NetworkSpec(input_shape=(28, 28))
    return net, cnn.train(net, floor_digits[0], NoiseModel(0.0), cnn.TrainConfig(seed=0))


class TestBayesFloor:
    """The exact Bayes-optimal error of a template mixture under pixel flips,
    and the floor it puts under every classifier of the block digits."""

    @given(template_mixtures())
    def test_matches_enumeration(self, mixture):
        templates, labels, weights, q = mixture
        patterns = all_patterns(templates.shape[1])
        oracle = bayes_error(patterns, templates, labels, weights, q)
        exact = enumerated_posterior_error(templates, labels, weights, q)
        np.testing.assert_allclose(oracle, exact, rtol=1e-12, atol=0)

    def test_templates_are_the_synthetic_placements(self):
        templates, labels = block_digit_templates()
        assert templates.shape == (250, 784) and len(np.unique(templates, axis=0)) == 250
        digits = synthetic_digits(500, seed=9, split="evaluation")
        d = (digits.images[:, None, :] != templates[None, :, :]).sum(axis=2)
        # the nearest placement is of the image's class and differs by speckle only
        assert np.array_equal(labels[d.argmin(axis=1)], digits.labels)
        assert d.min(axis=1).max() <= 30

    def test_floor_is_nine_tenths_at_half(self):
        # at p = 1/2 every pixel is a fair coin, so all ten classes tie
        images = synthetic_digits(100, seed=8, split="evaluation").images
        assert block_digit_floor(images, 0.5, 2, 0) == (0.9, 0.0)

    @settings(max_examples=20)
    @given(p=st.floats(0.0, 0.5))
    @example(p=0.4)
    @example(p=0.45)
    def test_nn_error_is_above_the_floor(self, floor_digits, p):
        train, evaluation = floor_digits
        est = estimate_error(None, evaluation, NoiseModel(p), trials=4, master_seed=12,
                             predictor=nn_predictor(train))
        floor, floor_se = block_digit_floor(evaluation.images, p, 4, 13)
        assert est.mean >= floor - floor_slack(est, floor, floor_se), (est, floor, floor_se)

    @settings(max_examples=10)
    @given(p=st.floats(0.0, 0.5))
    @example(p=0.4)
    def test_cnn_error_is_above_the_floor(self, floor_digits, floor_cnn, p):
        from qthermal import cnn

        net, params = floor_cnn
        evaluation = floor_digits[1]
        est = estimate_error(None, evaluation, NoiseModel(p), trials=2, master_seed=14,
                             predictor=partial(cnn.predict_labels, net, params))
        floor, floor_se = block_digit_floor(evaluation.images, p, 4, 15)
        assert est.mean >= floor - floor_slack(est, floor, floor_se), (est, floor, floor_se)


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
        _, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        with pytest.raises(ValueError, match="threads"):
            advantage_regions(no_work, evaluation, pair, [10], trials=1, master_seed=0, threads=threads)

    def test_fidelities_computed_once_per_grid(self, digits_small, monkeypatch):
        import qthermal.classify as classify

        calls = Counter()

        def counted(fn):
            def wrapper(pair):
                calls[fn.__name__] += 1
                return fn(pair)
            return wrapper

        monkeypatch.setattr(classify, "fidelity_classical", counted(fidelity_classical))
        monkeypatch.setattr(classify, "fidelity_choi_inf", counted(fidelity_choi_inf))
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(nn_factory(train), evaluation, pair, [10, 20, 40, 80], trials=1, master_seed=2)
        assert calls == {"fidelity_classical": 1, "fidelity_choi_inf": 1}
        assert [row.models for row in rows] == [endpoint_noise_models(pair, M) for M in (10, 20, 40, 80)]

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
                factory, head(evaluation, n_eval), pair, [10, 40], trials=trials,
                master_seed=0, threads=2,
            )
        assert built == []

    def test_identical_channels_no_advantage(self, digits_small):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.02)
        rows = advantage_regions(nn_factory(train), evaluation, pair, [5], trials=4, master_seed=8)
        row = rows[0]
        means = [e.mean for e in row.errors.values()]
        assert max(means) - min(means) <= 4 * row.stderr_max + 0.05
        assert row.de_min <= 0.0 + 4 * row.stderr_max

    def test_p_override_zero_on_subset(self, digits_small):
        train, _ = digits_small
        subset = head(train, 30)
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(
            nn_factory(train), subset, pair, [10], trials=2, master_seed=1, p_override=0.0
        )
        row = rows[0]
        assert row.errors["classical-lower"].mean == row.errors["quantum-upper"].mean == 0.0
        assert row.de_min == row.de_max == 0.0

    def test_endpoints_share_uniforms(self, digits_small):
        # with one flip probability everywhere, common random numbers make
        # the four endpoint estimates identical
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        row = advantage_regions(
            nn_factory(train), evaluation, pair, [10], trials=3, master_seed=2, p_override=0.2
        )[0]
        assert row.errors["classical-lower"].mean > 0.0
        assert list(row.errors.values()) == [row.errors["classical-lower"]] * 4

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
            factory, evaluation, pair, [10, 40], trials=3, master_seed=6,
            threads=2, p_override=0.2,
        )
        assert built == [NoiseModel(0.2)] * 2
        for mi, row in enumerate(rows):
            seed = trial_stream(6, mi).integers(2**63)
            expected = estimate_error(train, evaluation, NoiseModel(0.2), 3, seed)
            assert expected.mean > 0.0
            assert list(row.errors.values()) == [expected] * 4
        assert rows == advantage_regions(
            nn_factory(train), evaluation, pair, [10, 40], trials=3, master_seed=6, p_override=0.2
        )

    @pytest.mark.parametrize("p_override", [None, 0.2])
    def test_rows_keyed_by_endpoint_tag(self, digits_small, p_override):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(
            nn_factory(train), evaluation, pair, [10, 40], trials=2, master_seed=1,
            p_override=p_override,
        )
        for row in rows:
            assert tuple(row.models) == tuple(row.errors) == NOISE_DERIVATIONS
            if p_override is None:
                assert row.models == endpoint_noise_models(pair, row.M)
            else:
                assert set(row.models.values()) == {NoiseModel(p_override)}

    def test_pixel_probabilities_recorded(self, digits_small):
        train, evaluation = digits_small
        pair = EnvironmentPair.additive(0.02, 0.01)
        rows = advantage_regions(nn_factory(train), evaluation, pair, [10, 40], trials=2, master_seed=1)
        for row, M in zip(rows, (10, 40)):
            assert row.M == M
            p = {tag: model.flip_probability for tag, model in row.models.items()}
            assert p["quantum-lower"] <= p["quantum-upper"]
            assert p["classical-lower"] <= p["classical-upper"]
            assert p["quantum-upper"] < p["classical-upper"]

    def test_each_column_matches_exact_enumeration(self):
        # training = evaluation = every CPF(8, 3) pattern, each its own class,
        # so each column's expected value is the exact NN error at its flip
        # probability; the exact variance keeps a zero estimate of a tiny
        # error from dividing by a zero sample variance
        patterns = space_patterns(ImageSpace.cpf(8, 3))
        ds = make_dataset(patterns, np.arange(len(patterns)))
        pair = EnvironmentPair.thermal(0.99, 18.5, 20.2)
        rows = advantage_regions(
            nn_factory(ds), ds, pair, [1000, 2500], trials=200, master_seed=3, threads=2
        )
        for row in rows:
            for tag, est in row.errors.items():
                p = row.models[tag].flip_probability
                exact = exact_nn_error(patterns, p)
                assert 0.01 < exact < 0.99, (row.M, p, exact)
                sigma = np.sqrt(exact * (1.0 - exact) / (est.trials * est.evaluations))
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
                factory, evaluation, pair, [10, 40], trials=3, master_seed=6, threads=threads
            )
            return rows, built

        rows1, built1 = run(1)
        rows4, built4 = run(4)
        # the eight endpoint models of M = 10 and 40 are distinct
        expected = Counter(m for M in (10, 40) for m in endpoint_noise_models(pair, M).values())
        assert len(expected) == 8
        assert Counter(built1) == Counter(built4) == expected
        assert rows1 == rows4
        assert any(row.errors["classical-upper"].mean > 0.0 for row in rows1)
