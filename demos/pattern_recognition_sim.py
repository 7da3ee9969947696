"""Quantum-enhanced statistical pattern recognition, end to end.

Exact pattern classification needs resources exponential in the pixel
count; a statistical classifier sidesteps that by learning from labelled
examples.  Here each pixel of a binary image passes through a background
or target channel, the sensor's single-pixel error interval translates
into pixel-flip noise, and a nearest-neighbour classifier (and optionally
a small CNN) labels the noisy images.  Comparing the error regions reached
with classical and quantum sensors shows the advantage surviving the full
classification pipeline.  With ``--cnn`` a CNN trained for each noise
endpoint runs through ``advantage_regions``, the same path as
``qthermal simulate --classifier cnn``.

Uses the bundled synthetic digit set unless QTHERMAL_DATASET_DIR points at
IDX files; ``qthermal.data.load_splits`` picks the sets, so on IDX data the
demo prints the names of the files read, not the directory.
Run:  python demos/pattern_recognition_sim.py [--cnn]
"""

import sys
from functools import partial

import numpy as np

from qthermal import (
    EnvironmentPair,
    NoiseModel,
    advantage_regions,
    estimate_error,
    nn_predictor,
    snapp_fit,
)
from qthermal.classify import _snapp_design
from qthermal.data import load_splits, synthetic_digits


def load_data(T: int, n_eval: int):
    train, evaluation = load_splits(T, n_eval, seed=100)
    if train.provenance["kind"] == "idx":
        files = [*train.provenance["source"], *evaluation.provenance["source"]]
        print(f"using IDX files {', '.join(files)}")
    else:
        print("using the synthetic digit set (set QTHERMAL_DATASET_DIR for IDX files)")
    return train, evaluation


def error_regions(train, evaluation) -> None:
    pair = EnvironmentPair.additive(0.02, 0.01)
    print("\nadditive-noise sensing, nu = (0.02, 0.01), NN classifier")
    print("      M   E_cl in [L, U]          E_q in [L, U]           dE_min")
    nn = nn_predictor(train)  # one classifier for every noise endpoint
    for row in advantage_regions(
        lambda noise: nn, evaluation, pair, [5, 10, 20, 40], trials=10, master_seed=7, threads=4
    ):
        cl_low, cl_up, q_low, q_up = (e.mean for e in row.errors.values())
        print(
            f"  {row.M:5d}   [{cl_low:7.4f}, {cl_up:7.4f}]"
            f"    [{q_low:7.4f}, {q_up:7.4f}]    {row.de_min:+8.4f}"
        )
    print("  a positive dE_min certifies quantum advantage at that probe budget")


def finite_sample_interpolation() -> None:
    # smaller 8x8 geometry: the T^(-j/m) interpolation basis only resolves
    # its terms when ln(T_max/T_min) is comparable to m, so coarse images
    # make the fit meaningful; at m = 784 it degenerates to pure smoothing
    print("\nfinite-sample behaviour of the NN error (8x8 digits, pixel noise p = 0.3):")
    evaluation = synthetic_digits(200, seed=101, split="evaluation", height=8, width=8)
    noise = NoiseModel(0.3)
    samples = []
    for T in (30, 60, 120, 250, 500, 1000, 2000, 4000):
        train = synthetic_digits(T, seed=100, split="training", height=8, width=8)
        est = estimate_error(train, evaluation, noise, trials=8, master_seed=5)
        samples.append((T, est.mean))
    fit = snapp_fit(samples, m=64)
    design = _snapp_design(np.array([t for t, _ in samples], float), 64)
    predicted = design @ np.concatenate([[fit.e_inf], fit.coefficients])
    print("      T    measured   interpolated")
    for (T, E), p in zip(samples, predicted):
        print(f"  {T:5d}    {E:.4f}       {p:.4f}")
    print(
        f"  residual rms {fit.residual_rms:.2g}; the error flattens out once the"
        "\n  training set covers the glyph variations"
    )


def cnn_comparison(train, evaluation) -> None:
    from qthermal.cnn import NetworkSpec, TrainConfig, predict_labels, train as train_net

    pair = EnvironmentPair.additive(0.02, 0.01)
    M = 10
    print(f"\nCNN vs NN at M = {M} (additive pair), trained per noise endpoint:")
    net = NetworkSpec(input_shape=(train.height, train.width), classes=10)
    config = TrainConfig()

    def trained_cnn(noise):
        return partial(predict_labels, net, train_net(net, train, noise, config))

    (row,) = advantage_regions(trained_cnn, evaluation, pair, [M], trials=5, master_seed=3)
    for tag, model in row.models.items():
        est = row.errors[tag]
        print(f"  {tag:16s} p={model.flip_probability:.4f}  CNN error {est.mean:.4f} +- {est.stderr:.4f}")


def main() -> None:
    train, evaluation = load_data(T=4000, n_eval=150)
    error_regions(train, evaluation)
    finite_sample_interpolation()
    if "--cnn" in sys.argv:
        cnn_comparison(train, evaluation)
    else:
        print("\n(pass --cnn to add the convolutional classifier comparison)")


if __name__ == "__main__":
    main()
