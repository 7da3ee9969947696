"""Per-call microbenchmarks of the stages that CLI spans cannot isolate.

    python3 bench/micro.py RESULT_JSON SEED

Each case is warmed up, then timed in SAMPLES batches; a batch repeats the
call often enough to last at least MIN_BATCH_S.  RESULT_JSON receives, per
case, the per-call time of every batch in the case's unit.
"""

import json
import sys
import time

SAMPLES = 7
MIN_BATCH_S = 0.02


def _per_call(fn, scale: float) -> list[float]:
    fn()
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    calls = max(1, int(MIN_BATCH_S / max(first, 1e-9)))
    out = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter() - t0) / calls * scale)
    return out


def main() -> int:
    result_path, seed = sys.argv[1], int(sys.argv[2])

    import qthermal as qt
    from qthermal import cnn

    thermal = qt.EnvironmentPair.thermal(0.99, eps_background=18.5, eps_target=20.2)
    mixed = (qt.choi_cm(thermal.target, 10.0), qt.choi_cm(thermal.background, 10.0))
    nearpure = (qt.choi_cm(thermal.target, 0.5), qt.choi_cm(thermal.background, 0.5))
    bcpf = qt.ImageSpace.bcpf(784, range(100, 150))

    training = qt.synthetic_digits(10_000, seed, split="training")
    evaluation = qt.synthetic_digits(250, seed + 1, split="evaluation")
    noise = qt.NoiseModel(flip_probability=0.1)

    net = cnn.NetworkSpec(input_shape=(28, 28))
    params = cnn.init_params(net, seed)
    batch64 = training.images[:64].reshape(64, 28, 28).astype(float)
    labels64 = training.labels[:64]
    batch250 = evaluation.images.reshape(250, 28, 28).astype(float)

    cases = {
        "gaussian.fidelity_mixed_us": (lambda: qt.gaussian_fidelity(*mixed), 1e6),
        "gaussian.fidelity_nearpure_us": (lambda: qt.gaussian_fidelity(*nearpure), 1e6),
        "channels.choi_inf_thermal_ms": (lambda: qt.fidelity_choi_inf(thermal), 1e3),
        "spaces.bcpf_functional_ms": (lambda: qt.bcpf_functional(bcpf, 0.9), 1e3),
        "classify.estimate_error_1trial_ms": (
            lambda: qt.estimate_error(training, evaluation, noise, 1, seed),
            1e3,
        ),
        "cnn.loss_and_grad_b64_ms": (
            lambda: cnn.loss_and_grad(net, params, batch64, labels64),
            1e3,
        ),
        "cnn.predict_labels_b250_ms": (
            lambda: cnn.predict_labels(net, params, batch250),
            1e3,
        ),
    }
    result = {name: _per_call(fn, scale) for name, (fn, scale) in cases.items()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
