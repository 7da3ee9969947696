"""Traced peak memory of the largest transient allocations of a
nearest-neighbour simulation (scoring one batch, flipping one noisy batch and
building the digits), of image-space sums and spectra at large m, the
lifetime of the training images behind a built predictor, and the size of a
CNN training step's workspace."""

import gc
import tracemalloc
import weakref

import pytest

import numpy as np

from qthermal.classify import NoiseModel, nn_predictor, sample_noisy
from qthermal.cnn import NetworkSpec, init_params, loss_and_grad
from qthermal.data import _FLIP_ROWS, synthetic_digits, trial_stream
from qthermal.spaces import ImageSpace, log_distance_counts, log_factorials, log_hamming_sum, log_pair_counts

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


def test_hamming_sum_blocks_by_bytes_at_large_m():
    # 200 log f entries over a 50 000-pixel spectrum: two entries per block,
    # 0.8 MB per temporary, where 128-entry blocks took 51 MB each
    counts = log_distance_counts(ImageSpace.uniform(50_000))
    log_f = np.linspace(-3.0, -1e-3, 200)
    peak, sums = traced_peak(log_hamming_sum, counts, log_f)
    assert sums.shape == (200,) and np.isfinite(sums).all()
    assert peak < 4 * MB


def test_wide_spectrum_stays_in_blocks():
    # 600 even counts at m = 1200: each parity's (t, s) incidence would be
    # 1199 x 1199 doubles (11.5 MB) whole; it is built in 0.8 MB blocks
    ks = tuple(range(0, 1200, 2))
    log_factorials(1200)  # one-time setup
    peak, counts = traced_peak(log_pair_counts, 1200, ks, ks)
    assert np.isfinite(counts[1::2]).all()
    assert peak < 10 * MB


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
