"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report and the recorded simulation magnitudes.
"""

import math
from itertools import combinations

import numpy as np

from qthermal.bounds import bounds, min_rel_probe_uniform
from qthermal.channels import (
    EnvironmentPair,
    fidelity_choi_inf,
    fidelity_choi_inf_extrapolated,
    fidelity_classical,
)
from qthermal.classify import (
    NoiseModel,
    _snapp_design,
    advantage_regions,
    estimate_error,
    snapp_fit,
)
from qthermal.cnn import NetworkSpec
from qthermal.data import synthetic_digits
from qthermal.gaussian import gaussian_fidelity
from qthermal.spaces import ImageSpace, bcpf_functional

from conftest import (
    block_digit_floor,
    brute_bcpf,
    brute_cpf,
    brute_cross,
    brute_uniform,
    floor_slack,
    fock_fidelity_oracle,
    head,
    max_fd_error,
    min_rel_probe_additive,
    nn_factory,
    pair_sum,
    printed_choi_additive,
    printed_classical_additive,
    smooth_configuration,
    thermal_cm,
)

F_GRID = (0.0, 0.1, 0.5, 0.9, 1.0)


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_functionals_match_enumeration():
    worst = 0.0
    for m in range(1, 11):
        for f in F_GRID:
            uniform = pair_sum(m, range(m + 1), range(m + 1), f) / 2**m
            worst = max(worst, rel_err(uniform, brute_uniform(m, f)))
            for k in range(m + 1):
                cpf = pair_sum(m, [k], [k], f) / math.comb(m, k)
                worst = max(worst, rel_err(cpf, brute_cpf(m, k, f)))
            for k, l in combinations(range(m + 1), 2):
                worst = max(worst, rel_err(pair_sum(m, [k], [l], f), brute_cross(m, k, l, f)))
                space = ImageSpace.bcpf(m, (k, l))
                worst = max(worst, rel_err(bcpf_functional(space, f), brute_bcpf(m, (k, l), f)))
    report(1, "sum-vs-enumeration", worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_2_fidelity_oracles():
    rng = np.random.default_rng(2024)
    worst_fock = 0.0
    for _ in range(50):
        n1, n2 = rng.uniform(0.0, 30.0, 2)
        diff = abs(
            gaussian_fidelity(thermal_cm(n1), thermal_cm(n2))
            - fock_fidelity_oracle(thermal_cm(n1), thermal_cm(n2), 1024)
        )
        worst_fock = max(worst_fock, diff)

    worst_half = 0.0
    for i in range(100):
        kind = i % 5
        if kind == 0:
            pair = EnvironmentPair.additive(*rng.uniform(0.0, 1.0, 2))
        elif kind == 4:
            tau = rng.uniform(1.001, 2.0)
            pair = EnvironmentPair.thermal(tau, *rng.uniform(0.5, 20.0, 2))
        else:
            tau = rng.uniform(0.02, 0.999)
            pair = EnvironmentPair.thermal(tau, *rng.uniform(0.5, 25.0, 2))
        # the vacuum-probe outputs are thermal, variance tau/2 + nu = nbar + 1/2
        nbars = [pair.tau / 2 + ch.nu - 0.5 for ch in (pair.target, pair.background)]
        worst_half = max(
            worst_half,
            abs(fidelity_classical(pair) - gaussian_fidelity(*map(thermal_cm, nbars))),
        )
    ok = worst_fock <= 1e-8 and worst_half <= 1e-10
    report(
        2,
        "fidelity oracle agreement",
        ok,
        f"fock {worst_fock:.2e}, vacuum-probe {worst_half:.2e}",
    )


def test_criterion_3_additive_closed_forms_and_tau_independence():
    grid = (1e-3, 3e-3, 1e-2, 0.1, 0.3, 1.0)
    worst_inf = worst_cl = 0.0
    for nu_t in grid:
        for nu_b in grid:
            pair = EnvironmentPair.additive(nu_b, nu_t)
            printed = printed_choi_additive(nu_t, nu_b)
            worst_inf = max(
                worst_inf,
                abs(printed - fidelity_choi_inf_extrapolated(pair)),
                abs(printed - fidelity_choi_inf(pair)),
            )
            worst_cl = max(
                worst_cl,
                abs(printed_classical_additive(nu_t, nu_b) - fidelity_classical(pair)),
            )
    taus = (0.1, 0.5, 0.9, 0.99)
    spread = 0.0
    for eps_b, eps_t in ((18.5, 20.2), (2.0, 5.0), (0.7, 1.1)):
        vals = [
            fidelity_choi_inf_extrapolated(EnvironmentPair.thermal(tau, eps_b, eps_t))
            for tau in taus
        ]
        spread = max(spread, max(vals) - min(vals))
    ok = worst_inf <= 1e-8 and worst_cl <= 1e-8 and spread <= 1e-6
    report(
        3,
        "additive closed forms / tau independence",
        ok,
        f"inf {worst_inf:.2e}, classical {worst_cl:.2e}, tau spread {spread:.2e}",
    )


def test_criterion_4_min_rel_probe_dual_path():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        nu_t, nu_b = 10 ** rng.uniform(-3, 0, 2)
        generic = min_rel_probe_uniform(
            printed_choi_additive(nu_t, nu_b), printed_classical_additive(nu_t, nu_b)
        )
        closed = min_rel_probe_additive(nu_t, nu_b)
        worst = max(worst, abs(generic - closed) / max(1.0, abs(closed)))

    F_q = printed_choi_additive(0.01, 0.02)
    F_cl = printed_classical_additive(0.01, 0.02)
    mbar = min_rel_probe_uniform(F_q, F_cl)
    flips_ok = True
    for m in (4, 9, 50):
        M_hi, M_lo = math.ceil(mbar * m), math.floor(mbar * m) - 1
        # sign flip of the Bernoulli-form advantage exactly at the threshold
        simple = lambda M: (m / 2 ** (m + 1)) * F_cl ** (2 * M) - (m / 2) * F_q**M
        flips_ok &= simple(M_hi) > 0 > simple(M_lo)
        # and the exact bounds honour the guarantee side
        flips_ok &= bounds(ImageSpace.uniform(m), M_hi, F_q, F_cl).mga >= 0
        flips_ok &= bounds(ImageSpace.uniform(m), 1, F_q, F_cl).mga < 0
    ok = worst <= 1e-10 and flips_ok
    report(4, "min relative probe number dual path", ok, f"worst rel {worst:.2e}")


def test_criterion_5_figure_setups():
    # uniform m=9 additive pattern: some finite M guarantees advantage
    F_q = printed_choi_additive(0.01, 0.02)
    F_cl = printed_classical_additive(0.01, 0.02)
    space = ImageSpace.uniform(9)
    reports = [bounds(space, M, F_q, F_cl) for M in range(1, 301)]
    crossing = next((i + 1 for i, r in enumerate(reports) if r.mga > 0), None)
    mpa_ok = all(r.mpa >= r.mga - 1e-12 for r in reports)

    # thermal sweep: the advantage threshold diverges as loss grows
    taus = (0.999, 0.995, 0.99, 0.98, 0.97, 0.96, 0.95)
    mbars = []
    for tau in taus:
        pair = EnvironmentPair.thermal(tau, 18.5, 20.2)
        mbars.append(min_rel_probe_uniform(fidelity_choi_inf(pair), fidelity_classical(pair)))
    increasing = all(b > a for a, b in zip(mbars, mbars[1:]))
    diverged = math.isinf(mbars[-1])
    ok = crossing is not None and mpa_ok and increasing and diverged
    report(
        5,
        "figure-setup directions",
        ok,
        f"mga>0 from M={crossing}; Mbar(tau): "
        + ", ".join("inf" if math.isinf(v) else f"{v:.0f}" for v in mbars),
    )


def test_criterion_6_simulator_ground_truths():
    train = synthetic_digits(1000, seed=60, split="training")
    evaluation = synthetic_digits(300, seed=61, split="evaluation")

    subset = head(train, 100)
    exact_zero = estimate_error(train, subset, NoiseModel(0.0), trials=3, master_seed=1)

    est_half = estimate_error(train, evaluation, NoiseModel(0.5), trials=20, master_seed=2)
    sigma = math.sqrt(0.9 * 0.1 / (est_half.trials * est_half.evaluations))

    pair = EnvironmentPair.additive(0.02, 0.01)
    factory = nn_factory(train)
    kwargs = dict(M_grid=[10, 40], trials=8, master_seed=3)
    single = advantage_regions(factory, evaluation, pair, threads=1, **kwargs)
    eight = advantage_regions(factory, evaluation, pair, threads=8, **kwargs)

    ok = (
        exact_zero.mean == 0.0
        and abs(est_half.mean - 0.9) <= 3 * sigma
        and single == eight
        and any(row.errors["classical-upper"].mean > 0.0 for row in single)
    )
    report(
        6,
        "simulator ground truths",
        ok,
        f"E(p=0)={exact_zero.mean}, E(p=1/2)={est_half.mean:.4f} (3 sigma {3*sigma:.4f}), "
        f"threads 1 vs 8 identical: {single == eight}",
    )


def test_criterion_7_cnn_gradient_check():
    architectures = [
        NetworkSpec(input_shape=(6, 6), conv=((2, 3, 1),), dense=(8,), classes=3),
        NetworkSpec(input_shape=(7, 7), conv=((3, 3, 2),), dense=(6,), classes=4),
        NetworkSpec(input_shape=(6, 6), conv=((2, 2, 1), (2, 2, 2)), dense=(5,), classes=2),
        NetworkSpec(input_shape=(5, 5), conv=(), dense=(10, 6), classes=3),
        NetworkSpec(input_shape=(8, 8), conv=((2, 4, 2),), dense=(), classes=5),
    ]
    worst = 0.0
    for i, net in enumerate(architectures):
        params, images, labels = smooth_configuration(net, seed=70 + i)
        worst = max(worst, max_fd_error(net, params, images, labels, coords=100, seed=i))
    report(7, "cnn gradient check", worst <= 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_8_simulation_directions():
    train = synthetic_digits(10_000, seed=100, split="training")
    evaluation = synthetic_digits(200, seed=101, split="evaluation")

    pair_add = EnvironmentPair.additive(0.02, 0.01)
    rows = advantage_regions(
        nn_factory(train), evaluation, pair_add, [10, 40], trials=20, master_seed=7, threads=4
    )
    print()
    for r in rows:
        cl_low, cl_up, q_low, q_up = (e.mean for e in r.errors.values())
        print(
            f"  [recorded] additive M={r.M}: E_cl=[{cl_low:.4f},{cl_up:.4f}] "
            f"E_q=[{q_low:.4f},{q_up:.4f}] dE_min={r.de_min:.4f} "
            f"stderr_max={r.stderr_max:.5f}"
        )
    additive_ok = any(r.de_min > 3 * max(r.stderr_max, 1e-6) for r in rows)

    pair_th = EnvironmentPair.thermal(0.99, 18.5, 20.2)
    row = advantage_regions(
        nn_factory(train), evaluation, pair_th, [2500], trials=20, master_seed=8, threads=4
    )[0]
    cl_low, cl_up, q_low, q_up = (e.mean for e in row.errors.values())
    print(
        f"  [recorded] thermal M={row.M}: E_cl=[{cl_low:.4f},{cl_up:.4f}] "
        f"E_q=[{q_low:.4f},{q_up:.4f}] stderr_max={row.stderr_max:.5f}"
    )
    noise = 2 * max(row.stderr_max, 1e-6)
    thermal_ok = q_up <= cl_low + noise and q_up <= cl_up + noise

    # no error may sit below the exact Bayes-optimal error of its endpoint
    below = []
    for r in (*rows, row):
        for model, est in zip(r.models.values(), r.errors.values()):
            p = model.flip_probability
            floor, floor_se = block_digit_floor(evaluation.images, p, 4, 9)
            print(f"  [recorded] M={r.M} p={p:.4f}: E={est.mean:.4f} Bayes floor={floor:.4f}")
            if est.mean < floor - floor_slack(est, floor, floor_se):
                below.append((r.M, p, est.mean, floor))
    report(
        8,
        "quantum-vs-classical simulation directions",
        additive_ok and thermal_ok and not below,
        f"additive dE_min={rows[0].de_min:.4f}/{rows[1].de_min:.4f}, "
        f"thermal quantum region below classical: {thermal_ok}, below the Bayes floor: {below}",
    )


def test_criterion_9_snapp_roundtrip():
    m = 4
    Ts = np.array([10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000], float)
    truth = np.array([0.05, 0.3, -0.2, 0.15, -0.04])
    E = _snapp_design(Ts, m) @ truth
    fit = snapp_fit(list(zip(Ts, E)), m)
    recovered = np.concatenate([[fit.e_inf], fit.coefficients])
    worst = float(np.max(np.abs((recovered - truth) / truth)))
    report(9, "finite-sample ansatz round trip", worst <= 1e-6, f"worst rel err {worst:.2e}")
