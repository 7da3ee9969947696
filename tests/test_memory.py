"""Traced peak memory of the largest transient allocations of a
nearest-neighbour simulation (scoring one batch, flipping one noisy batch and
building the digits), the lifetime of the training images behind a built
predictor, and the size of a CNN training step's workspace."""

import gc
import tracemalloc
import weakref

import pytest

import numpy as np

from qthermal.classify import NoiseModel, nn_predictor, sample_noisy
from qthermal.cnn import NetworkSpec, init_params, loss_and_grad
from qthermal.data import _FLIP_ROWS, synthetic_digits, trial_stream

MB = 1e6


def traced_peak(fn, *args):
    """Peak bytes allocated during ``fn(*args)``, and the call's result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def training():
    return synthetic_digits(10_000, seed=1)


def test_nn_batch_peaks_below_batch_plus_product(training):
    # synthetic norms stay below 256, so 8-bit digits pack 6 images per
    # column and the GEMM output is 250 x ceil(10 000 / 6) float64; the
    # float64 batch is freed before the row-block scoring buffers, which are
    # smaller, are allocated
    assert training.images.sum(axis=1).max() < 256
    predict = nn_predictor(training)
    batch = sample_noisy(synthetic_digits(250, seed=2, split="evaluation").images,
                         NoiseModel(0.2), trial_stream(3, 0))
    peak, labels = traced_peak(predict, batch)
    assert len(labels) == 250
    assert peak < 250 * 784 * 8 + 250 * 1667 * 8 + 0.5 * MB


def test_sample_noisy_peaks_below_output_plus_one_block():
    images = synthetic_digits(250, seed=2, split="evaluation").images
    sample_noisy(images, NoiseModel(0.2), trial_stream(3, 0))  # one-time setup
    peak, noisy = traced_peak(sample_noisy, images, NoiseModel(0.2), trial_stream(3, 0))
    assert noisy.shape == (250, 784)
    assert peak < noisy.nbytes + _FLIP_ROWS * 784 * 8 + 0.1 * MB


def test_nn_predictor_releases_training_images():
    ds = synthetic_digits(500, seed=4)
    images = weakref.ref(ds.images)
    predict = nn_predictor(ds)
    del ds
    gc.collect()
    assert images() is None
    assert len(predict(np.zeros((3, 784), np.uint8))) == 3


def test_synthetic_digits_peaks_below_images_plus_3mb():
    synthetic_digits(1, seed=0)  # one-time setup stays out of the traced call
    peak, ds = traced_peak(synthetic_digits, 10_000, 1)
    assert ds.images.nbytes == 10_000 * 784
    assert peak < ds.images.nbytes + 3 * MB


def test_cnn_training_workspace_below_5_5mb():
    # one float32 SGD step on 64 images of the default net: one window
    # buffer, sized for the widest conv layer, the activations of the forward
    # pass, one ReLU mask and the input (5.19 MB); the backward pass writes
    # its input gradients into those same buffers
    net = NetworkSpec((28, 28))
    params = [(W.astype(np.float32), b.astype(np.float32)) for W, b in init_params(net, 0)]
    digits = synthetic_digits(64, seed=3)
    workspace = {}
    loss_and_grad(net, params, digits.images, digits.labels, _workspace=workspace)
    assert sum(a.nbytes for a in workspace.values()) <= 5.5 * MB
