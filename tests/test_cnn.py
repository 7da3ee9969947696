"""Forward pass, backpropagation and training loop."""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qthermal import cnn
from qthermal.channels import EnvironmentPair
from qthermal.classify import NoiseModel, advantage_regions, estimate_error
from qthermal.cnn import (
    _PREDICT_CHUNK,
    NetworkSpec,
    TrainConfig,
    _col2im,
    _forward_batch,
    _windows,
    init_params,
    loss_and_grad,
    predict_labels,
    train,
)
from qthermal.data import BinaryImageDataset, synthetic_digits
from qthermal.errors import EmptyTrainingSetError, NonFiniteLossError, ShapeMismatchError

from conftest import direct_preactivations, max_fd_error, smooth_configuration

SMALL = NetworkSpec(input_shape=(6, 6), conv=((2, 3, 1),), dense=(8,), classes=3)
# two conv stages, so the backward pass scatters windows through _col2im
TWO_CONV = NetworkSpec(input_shape=(6, 6), conv=((2, 2, 1), (2, 2, 2)), dense=(5,), classes=2)
TOY = NetworkSpec(input_shape=(4, 4), conv=((2, 2, 1),), dense=(4,), classes=2)
# three conv stages, so the backward pass rebuilds a middle layer's windows
THREE_CONV = NetworkSpec(input_shape=(6, 6), conv=((2, 2, 1),) * 3, dense=(3,), classes=2)


def zero_params(net):
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in init_params(net, 0)]


class TestNetworkSpec:
    def test_shape_chain(self):
        net = NetworkSpec(input_shape=(28, 28))
        assert net.feature_shapes() == [(1, 28, 28), (8, 26, 26), (16, 12, 12)]

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            NetworkSpec(input_shape=(2, 2), conv=((4, 3, 1),))


class TestTrainConfig:
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_rejects_epochs_below_one(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_rejects_non_finite_or_negative_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.1, 1.0, 1.5])
    def test_rejects_holdout_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"holdout fraction must lie in \[0, 1\)"):
            TrainConfig(holdout_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99])
    def test_accepts_holdout_fraction_in_unit_interval(self, fraction):
        assert TrainConfig(holdout_fraction=fraction).holdout_fraction == fraction


class TestForward:
    def test_zero_parameters_give_uniform(self):
        # every class has probability 1/3, so each image's loss is ln 3
        rng = np.random.default_rng(0)
        images = rng.random((5, *SMALL.input_shape))
        loss, _ = loss_and_grad(SMALL, zero_params(SMALL), images, rng.integers(0, 3, 5))
        assert loss == 5 * np.log(3)

    def test_probabilities_normalised(self):
        # the output-bias gradient of one image is its softmax less the
        # one-hot label: it sums to 0 when the probabilities sum to 1, and
        # adding the label back leaves the probabilities, all >= 0
        rng = np.random.default_rng(1)
        params = init_params(SMALL, 3)
        for label in rng.integers(0, 3, 20):
            _, grads = loss_and_grad(SMALL, params, rng.random((1, *SMALL.input_shape)), [label])
            probs = grads[-1][1] + np.eye(3)[label]
            assert abs(grads[-1][1].sum()) <= 1e-9
            assert np.all(probs >= 0)

    def test_degenerate_identity_conv(self):
        net = NetworkSpec(input_shape=(1, 1), conv=((1, 1, 1),), dense=(), classes=1)
        W = np.ones((1, 1, 1, 1))
        params_net = [(W, np.zeros(1)), (np.ones((1, 1)), np.zeros(1))]
        loss, _ = loss_and_grad(net, params_net, np.array([[[2.0]]]), [0])
        assert loss == 0.0
        assert predict_labels(net, params_net, np.array([[[2.0]]])).tolist() == [0]

    def test_relu_masks_negative_preactivations(self):
        # a conv with negative bias drives activations to zero, so the
        # output layer sees only its own bias
        net = NetworkSpec(input_shape=(2, 2), conv=((1, 2, 1),), dense=(), classes=2)
        W = np.ones((1, 1, 2, 2))
        params_net = [(W, np.array([-100.0])), (np.ones((2, 1)), np.array([0.0, 1.0]))]
        loss, _ = loss_and_grad(net, params_net, np.ones((1, 2, 2)), [0])
        assert_allclose(loss, -np.log(np.exp(0.0) / np.exp([0.0, 1.0]).sum()), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(SMALL, init_params(SMALL, 0), np.zeros((1, 4, 4)), [0])

    # (3, 12) holds 36 = 6 * 6 pixels, so a reshape alone would read it as one image
    @pytest.mark.parametrize("shape", [(3, 12), (2, 35), (2, 6), (2, 6, 5), (2, 1, 6, 6)])
    def test_batch_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatchError, match=r"must be \(B, 6, 6\)"):
            predict_labels(SMALL, init_params(SMALL, 0), np.zeros(shape))

    @pytest.mark.parametrize(
        "net",
        [
            NetworkSpec(input_shape=(28, 28)),
            NetworkSpec(input_shape=(9, 11), conv=((4, 3, 2), (5, 2, 1), (3, 2, 1)), dense=(6,)),
            NetworkSpec(input_shape=(9, 11), conv=((4, 3, 1), (3, 2, 2)), dense=(), classes=4),
            NetworkSpec(input_shape=(9, 11), conv=(), dense=(7,), classes=3),
        ],
        ids=["default", "three-conv-stride-2", "conv-only", "dense-only"],
    )
    def test_matches_direct_convolution(self, net):
        rng = np.random.default_rng(4)
        params = [(W, rng.normal(0.0, 0.1, b.shape)) for W, b in init_params(net, 4)]
        images = rng.random((5, *net.input_shape))
        assert_allclose(
            _forward_batch(net, params, images, workspace={}), direct_preactivations(net, params, images)[-1],
            rtol=1e-12,
        )


class TestLossAndGrad:
    # seed 7 leaves THREE_CONV no kink-free configuration in 50 attempts
    @pytest.mark.parametrize("net, seed", [(SMALL, 7), (TWO_CONV, 7), (THREE_CONV, 1)],
                             ids=["one_conv", "two_conv", "three_conv"])
    def test_gradient_against_finite_differences(self, net, seed):
        params, images, labels = smooth_configuration(net, seed)
        assert max_fd_error(net, params, images, labels) <= 1e-4

    def test_gradient_exact_on_full_sweep_small_eps(self):
        # every coordinate, away from the kink caveat, at a tighter step
        rng = np.random.default_rng(11)
        params = init_params(SMALL, 7)
        images = rng.random((4, *SMALL.input_shape))
        labels = rng.integers(0, SMALL.classes, 4)
        err = max_fd_error(SMALL, params, images, labels, coords=10_000, eps=1e-5)
        assert err <= 1e-4

    def test_duplicated_batch_doubles_sums(self):
        rng = np.random.default_rng(2)
        params = init_params(SMALL, 5)
        images = rng.random((3, *SMALL.input_shape))
        labels = np.array([0, 1, 2])
        loss1, grads1 = loss_and_grad(SMALL, params, images, labels)
        loss2, grads2 = loss_and_grad(
            SMALL, params, np.concatenate([images, images]), np.concatenate([labels, labels])
        )
        assert loss2 == pytest.approx(2 * loss1, rel=1e-12)
        for (gW1, gb1), (gW2, gb2) in zip(grads1, grads2):
            assert_allclose(gW2, 2 * gW1, rtol=1e-12, atol=1e-12)
            assert_allclose(gb2, 2 * gb1, rtol=1e-12, atol=1e-12)

    def test_zero_parameters_uniform_loss(self):
        image = np.random.default_rng(3).random((1, *SMALL.input_shape))
        loss, _ = loss_and_grad(SMALL, zero_params(SMALL), image, np.array([1]))
        assert loss == pytest.approx(np.log(3), abs=1e-9)
        # batch-summed: a balanced batch of B entries costs B ln(N)
        images = np.repeat(image, 3, axis=0)
        loss3, _ = loss_and_grad(SMALL, zero_params(SMALL), images, np.array([0, 1, 2]))
        assert loss3 == pytest.approx(3 * np.log(3), abs=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_and_grad(SMALL, zero_params(SMALL), np.zeros((0, 6, 6)), np.zeros(0, int))

    def test_non_finite_loss_raised(self):
        from qthermal.errors import NonFiniteLossError

        params = init_params(SMALL, 5)
        params[0] = (np.full_like(params[0][0], np.inf), params[0][1])
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError):
            loss_and_grad(SMALL, params, np.ones((1, 6, 6)), np.array([0]))


def test_train_rejects_overflowed_parameters():
    # the last loss is finite; the step after it overflows the weights
    ds = synthetic_digits(5, seed=0, height=12, width=12)
    net = NetworkSpec(input_shape=(12, 12), conv=((4, 3, 1),), dense=(8,), classes=10)
    config = TrainConfig(learning_rate=1e300, batch_size=4, epochs=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError):
        train(net, ds, NoiseModel(0.0), config)


def toy_separable_dataset():
    # class 0 lights the left half, class 1 the right half
    images = np.zeros((8, 4, 4), np.uint8)
    images[:4, :, :2] = 1
    images[4:, :, 2:] = 1
    labels = np.array([0] * 4 + [1] * 4, np.int64)
    return BinaryImageDataset(
        images=images.reshape(8, 16), labels=labels, height=4, width=4
    )


class TestTrain:
    def test_learns_separable_toy(self):
        ds = toy_separable_dataset()
        net = NetworkSpec(input_shape=(4, 4), conv=((2, 2, 1),), dense=(4,), classes=2)
        config = TrainConfig(learning_rate=0.2, batch_size=4, epochs=50, seed=1, holdout_fraction=0.25)
        params = train(net, ds, NoiseModel(0.0), config)
        preds = predict_labels(net, params, ds.images.reshape(-1, 4, 4).astype(float))
        assert np.array_equal(preds, ds.labels)

    def test_zero_learning_rate_keeps_parameters(self):
        ds = toy_separable_dataset()
        net = NetworkSpec(input_shape=(4, 4), conv=(), dense=(3,), classes=2)
        config = TrainConfig(learning_rate=0.0, batch_size=4, epochs=2, seed=2)
        params = train(net, ds, NoiseModel(0.0), config)
        for (W, b), (W0, b0) in zip(params, init_params(net, 2)):
            assert_allclose(W, W0)
            assert_allclose(b, b0)

    def test_empty_training_set_raises_typed_error(self):
        empty = BinaryImageDataset(
            images=np.zeros((0, 16)), labels=np.zeros(0), height=4, width=4
        )
        with pytest.raises(EmptyTrainingSetError, match="training set is empty"):
            train(TOY, empty, NoiseModel(0.0), TrainConfig(epochs=1))

    @given(st.integers(2, 30), st.floats(0.0, 1.0, exclude_max=True))
    @example(2, 0.75)
    @settings(max_examples=50, deadline=None)
    def test_holdout_and_fit_sets_are_disjoint_and_non_empty(self, n, fraction):
        # image i shows the bits of i + 1, so its pattern names its index
        place = 1 << np.arange(16)
        images = (np.arange(1, n + 1)[:, None] & place) > 0
        ds = BinaryImageDataset(
            images=images, labels=np.arange(n) % 2, height=4, width=4
        )
        seen = {"fit": set(), "holdout": set()}

        def recording(role, fn):
            def wrapped(net, params, batch, *args, **kwargs):
                seen[role].update(int(i) - 1 for i in np.reshape(batch, (len(batch), 16)) @ place)
                return fn(net, params, batch, *args, **kwargs)

            return wrapped

        config = TrainConfig(batch_size=4, epochs=2, holdout_fraction=fraction)
        with mock.patch.object(cnn, "loss_and_grad", recording("fit", cnn.loss_and_grad)), \
                mock.patch.object(cnn, "predict_labels", recording("holdout", cnn.predict_labels)):
            train(TOY, ds, NoiseModel(0.0), config)
        assert seen["fit"] and seen["holdout"]
        assert seen["fit"].isdisjoint(seen["holdout"])
        assert seen["fit"] | seen["holdout"] == set(range(n))

    def test_fixed_seed_reproducible(self):
        ds = synthetic_digits(60, seed=4, height=8, width=8)
        net = NetworkSpec(input_shape=(8, 8), conv=((2, 3, 2),), dense=(8,), classes=10)
        config = TrainConfig(learning_rate=0.1, batch_size=16, epochs=3, seed=5)
        noise = NoiseModel(0.05)
        t1 = train(net, ds, noise, config)
        t2 = train(net, ds, noise, config)
        for (W1, b1), (W2, b2) in zip(t1, t2):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_zero_flip_network_is_the_small_p_network(self, seed):
        # every p draws the same uniforms, and none is below the smallest
        # subnormal, so p = 0 trains the network of p -> 0
        ds = synthetic_digits(40, seed=seed, height=8, width=8)
        net = NetworkSpec(input_shape=(8, 8), conv=((2, 3, 2),), dense=(6,), classes=10)
        config = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=seed)
        t0 = train(net, ds, NoiseModel(0.0), config)
        tiny = train(net, ds, NoiseModel(5e-324), config)
        for (W0, b0), (W1, b1) in zip(t0, tiny):
            assert np.array_equal(W0, W1)
            assert np.array_equal(b0, b1)


def as_dtype(params, dtype):
    return [(W.astype(dtype), b.astype(dtype)) for W, b in params]


class TestComputeDtype:
    def test_train_returns_float32(self):
        config = TrainConfig(learning_rate=0.2, batch_size=4, epochs=2, seed=1)
        params = train(TOY, toy_separable_dataset(), NoiseModel(0.05), config)
        assert all(W.dtype == b.dtype == np.float32 for W, b in params)

    @pytest.mark.parametrize("net", [SMALL, TWO_CONV], ids=["one_conv", "two_conv"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_follow_parameter_dtype(self, net, dtype):
        params, images, labels = smooth_configuration(net, seed=7)
        _, grads = loss_and_grad(net, as_dtype(params, dtype), images, labels)
        assert all(gW.dtype == gb.dtype == dtype for gW, gb in grads)

    @pytest.mark.parametrize("net", [SMALL, TWO_CONV], ids=["one_conv", "two_conv"])
    def test_float32_gradients_match_float64(self, net):
        # relative to each layer's largest entry, float32 rounding stays
        # well inside 1e-4
        params, images, labels = smooth_configuration(net, seed=7)
        _, g64 = loss_and_grad(net, params, images, labels)
        _, g32 = loss_and_grad(net, as_dtype(params, np.float32), images, labels)
        for layer64, layer32 in zip(g64, g32):
            for a64, a32 in zip(layer64, layer32):
                assert np.abs(a32 - a64).max() <= 1e-4 * np.abs(a64).max()


@st.composite
def small_nets(draw):
    """Nets of 1-3 conv stages (kernels 1-3, strides 1-2) on inputs large
    enough for every stage, with 0-2 hidden dense layers."""
    conv = tuple(
        (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, 3)))
    )
    dense = tuple(draw(st.lists(st.integers(1, 8), max_size=2)))
    return NetworkSpec(input_shape=(draw(st.integers(16, 18)), draw(st.integers(16, 18))),
                       conv=conv, dense=dense, classes=draw(st.integers(2, 10)))


def random_params(net, seed, dtype):
    rng = np.random.default_rng(seed)
    return [(W.astype(dtype), rng.normal(0.0, 0.1, b.shape).astype(dtype))
            for W, b in init_params(net, seed)]


WINDOW_CASES = dict(
    c=st.integers(1, 4),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    h=st.integers(5, 9),
    w=st.integers(5, 9),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)


def window_arrays(c, kernel, stride, h, w, batch, seed):
    """A random activation x (C, H, W, B) and window gradient y (C, k, k, OH, OW, B)."""
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    rng = np.random.default_rng(seed)
    return rng.normal(size=(c, h, w, batch)), rng.normal(size=(c, kernel, kernel, oh, ow, batch))


def traced_window_peaks(c, kernel, stride, h, w, batch):
    """Peak bytes traced during one ``_windows`` and one ``_col2im`` call on
    float32 arrays, each after an untraced first call, and the window buffer's
    size; the arrays die on return, so a failing example holds none."""
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    x, dx = np.ones((2, c, h, w, batch), np.float32)
    y, cols = np.ones((2, c, kernel, kernel, oh, ow, batch), np.float32)
    peaks = {}
    for fn, args in ((_windows, (x, kernel, stride, cols)), (_col2im, (y, dx, kernel, stride))):
        fn(*args)
        tracemalloc.start()
        try:
            fn(*args)
            peaks[fn.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks, cols.nbytes


class TestWindows:
    @given(**WINDOW_CASES)
    def test_col2im_is_the_adjoint_of_windows(self, c, kernel, stride, h, w, batch, seed):
        # <windows(x), y> == <x, col2im(y)> for every kernel/stride pair,
        # so the backward scatter sends each window gradient to its pixel
        x, y = window_arrays(c, kernel, stride, h, w, batch, seed)
        cols = _windows(x, kernel, stride, np.empty_like(y))
        dx = _col2im(y, np.full_like(x, np.nan), kernel, stride)
        lhs, rhs = np.vdot(cols, y), np.vdot(x, dx)
        assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(cols), np.abs(y))

    @given(**WINDOW_CASES)
    def test_match_one_strided_slice_per_tap(self, c, kernel, stride, h, w, batch, seed):
        # the window view copies, and its taps add, the same elements in the
        # same tap order as one strided slice of x per kernel tap
        x, y = window_arrays(c, kernel, stride, h, w, batch, seed)
        oh, ow = y.shape[3:5]
        cols, dx = np.empty_like(y), np.zeros_like(x)
        for i in range(kernel):
            for j in range(kernel):
                pixels = np.s_[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
                cols[:, i, j] = x[pixels]
                dx[pixels] += y[:, i, j]
        assert _windows(x, kernel, stride, np.full_like(y, np.nan)).tobytes() == cols.tobytes()
        assert _col2im(y, np.full_like(x, np.nan), kernel, stride).tobytes() == dx.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(**WINDOW_CASES)
    def test_copy_and_scatter_allocate_no_buffer(self, c, kernel, stride, h, w, batch, seed):
        # a window view that numpy copied, in the copy or in a tap's add, would
        # allocate at least a tap's share of the buffer, 1/9 of it or more;
        # batches are widened until 1 % of the buffer exceeds the fixed buffers
        # a ufunc loop may take, np.getbufsize() float32 items per operand
        oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
        batch = -(-(100 * 3 * np.getbufsize()) // (c * kernel**2 * oh * ow))
        peaks, nbytes = traced_window_peaks(c, kernel, stride, h, w, batch)
        assert max(peaks.values()) < 0.01 * nbytes, peaks


class TestWorkspace:
    @given(
        net=small_nets(),
        batch=st.integers(1, 150),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_chunked_prediction_matches_one_shot(self, net, batch, seed, dtype):
        params = random_params(net, seed, dtype)
        images = np.random.default_rng(seed).integers(0, 2, (batch, *net.input_shape), np.uint8)
        chunks = [images[i : i + _PREDICT_CHUNK] for i in range(0, batch, _PREDICT_CHUNK)]
        workspace = {}
        reused = np.concatenate(
            [_forward_batch(net, params, chunk, workspace=workspace).copy() for chunk in chunks]
        )
        fresh = np.concatenate([_forward_batch(net, params, chunk, workspace={}) for chunk in chunks])
        # reusing the workspace, for a partial last chunk too, changes no bit
        assert reused.tobytes() == fresh.tobytes()
        labels = predict_labels(net, params, images)
        assert np.array_equal(labels, np.argmax(reused, axis=1))
        # against one GEMM over the whole batch only rounding may differ:
        # BLAS can pick another kernel for another row count
        one_shot = _forward_batch(net, params, images, workspace={})
        atol = (1e-5 if dtype == np.float32 else 1e-13) * np.abs(one_shot).max()
        assert np.abs(reused - one_shot).max() <= atol
        top2 = np.sort(one_shot, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 2 * atol
        assert np.array_equal(labels[clear], np.argmax(one_shot, axis=1)[clear])

    @pytest.mark.parametrize("net", [SMALL, TWO_CONV, NetworkSpec(input_shape=(28, 28))],
                             ids=["one_conv", "two_conv", "default"])
    @pytest.mark.parametrize("sizes", [(7, 3), (3, 7), (64, 37)], ids=["shrink", "grow", "b64_b37"])
    def test_shared_workspace_matches_fresh_calls(self, net, sizes):
        # a second batch through the same workspace must not see the first
        # batch's windows, ReLU masks or the input gradients written over
        # its windows and activations, nor may a prediction after them
        params = random_params(net, 3, np.float32)
        rng = np.random.default_rng(5)
        workspace = {}
        for size in sizes:
            images = rng.integers(0, 2, (size, *net.input_shape), np.uint8)
            labels = rng.integers(0, net.classes, size)
            loss_ws, grads_ws = loss_and_grad(net, params, images, labels, _workspace=workspace)
            loss, grads = loss_and_grad(net, params, images, labels)
            assert loss_ws == loss
            for (gW_ws, gb_ws), (gW, gb) in zip(grads_ws, grads):
                assert gW_ws.tobytes() == gW.tobytes()
                assert gb_ws.tobytes() == gb.tobytes()
        reused = predict_labels(net, params, images, workspace)
        assert np.array_equal(reused, predict_labels(net, params, images))


class TestEvaluate:
    def test_untrained_uniform_network_guesses(self):
        evaluation = synthetic_digits(200, seed=9, split="evaluation")
        net = NetworkSpec(input_shape=(28, 28), conv=((2, 5, 3),), dense=(), classes=10)
        est = estimate_error(
            None, evaluation, NoiseModel(0.1), trials=5, master_seed=3,
            predictor=partial(predict_labels, net, zero_params(net)),
        )
        # argmax of a uniform output is class 0, so the error is the
        # fraction of non-zero labels
        assert abs(est.mean - 0.9) <= 3 * max(est.stderr, 0.01)

    def test_memorised_training_set(self):
        ds = toy_separable_dataset()
        net = NetworkSpec(input_shape=(4, 4), conv=((2, 2, 1),), dense=(4,), classes=2)
        config = TrainConfig(learning_rate=0.2, batch_size=4, epochs=50, seed=1, holdout_fraction=0.25)
        params = train(net, ds, NoiseModel(0.0), config)
        est = estimate_error(
            None, ds, NoiseModel(0.0), trials=2, master_seed=0,
            predictor=partial(predict_labels, net, params),
        )
        assert est.mean == 0.0

    def test_thread_count_does_not_change_estimate(self):
        ds = synthetic_digits(100, seed=21, height=12, width=12)
        evaluation = synthetic_digits(70, seed=22, split="evaluation", height=12, width=12)
        net = NetworkSpec(input_shape=(12, 12), conv=((4, 3, 1), (4, 3, 2)), dense=(8,), classes=10)
        params = train(net, ds, NoiseModel(0.05), TrainConfig(batch_size=16, epochs=1, seed=2))
        # one predictor shared by every job thread of advantage_regions
        predictor = partial(predict_labels, net, params)
        est = estimate_error(None, evaluation, NoiseModel(0.1), trials=6, master_seed=4, predictor=predictor)
        assert 0.0 < est.mean < 1.0
        rows = [
            advantage_regions(
                lambda noise: predictor, evaluation, EnvironmentPair.additive(0.02, 0.01), [10],
                trials=6, master_seed=4, threads=t,
            )
            for t in (1, 4)
        ]
        assert rows[0] == rows[1]
        assert 0.0 < rows[0][0].errors["classical-upper"].mean < 1.0

    def test_both_classifiers_beat_uniform_guessing(self):
        # no claim about which classifier wins, only that both trained
        # classifiers clear the 10-class guessing baseline
        noise = NoiseModel(0.1)
        ds = synthetic_digits(800, seed=77, split="training")
        evaluation = synthetic_digits(150, seed=78, split="evaluation")
        net = NetworkSpec(input_shape=(28, 28), classes=10)
        config = TrainConfig(learning_rate=0.05, batch_size=64, epochs=2, seed=1)
        params = train(net, ds, noise, config)
        cnn_est = estimate_error(
            None, evaluation, noise, trials=3, master_seed=5,
            predictor=partial(predict_labels, net, params),
        )
        nn_est = estimate_error(ds, evaluation, noise, trials=3, master_seed=5)
        assert cnn_est.mean < 0.5
        assert nn_est.mean < 0.5
