"""Output checks for the benchmark's CLI jobs.

Deterministic subcommands (``fidelity``, ``bounds``, ``temp``) are compared
value by value with reference CSVs that the CLI wrote at the commit that
introduced the benchmark, and their invariants are checked.  ``simulate``
values legitimately change when the Monte Carlo engine changes, so only its
schema, its flip probabilities (recomputed here from the paper's closed
forms) and the ranges of its errors are checked.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# relative tolerance for reference values: loose enough for a reordered
# log-domain sum, tight enough that any change of formula shows
REFERENCE_RTOL = 1e-9
# below this magnitude a value counts as zero (underflowed bound terms)
ABS_FLOOR = 1e-300
# slack for invariants between quantities computed in double precision
INVARIANT_TOL = 1e-12

SIMULATE_HEADER = (
    "M,p_cl_low,p_cl_up,p_q_low,p_q_up,E_cl_L,E_cl_U,E_q_L,E_q_U,dE_min,dE_max,stderr_max"
)


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), ABS_FLOOR)


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]


def compare_reference(text: str, reference: str) -> list[str]:
    """Every cell equal to the reference within ``REFERENCE_RTOL``."""
    if text == reference:
        return []
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    errors = []
    for lineno, (g, w) in enumerate(zip(got, want), 1):
        if g == w:
            continue
        gcells, wcells = re.split(r"[,=]", g), re.split(r"[,=]", w)
        if len(gcells) != len(wcells):
            errors.append(f"line {lineno}: {g!r} != reference {w!r}")
            continue
        for gc, wc in zip(gcells, wcells):
            try:
                same = _close(float(gc), float(wc), REFERENCE_RTOL)
            except ValueError:
                same = gc.strip() == wc.strip()
            if not same:
                errors.append(f"line {lineno}: {g!r} != reference {w!r}")
                break
    return errors[:5]


def _check_fidelity(text: str) -> list[str]:
    errors = []
    values = [(a, float(f)) for a, f in _rows(text)]
    if not values:
        return ["no rows"]
    previous = math.inf
    for a, f in values:
        if not 0.0 <= f <= 1.0:
            errors.append(f"F({a}) = {f} outside [0, 1]")
        if f > previous + INVARIANT_TOL:
            errors.append(f"F increases with a at a = {a}")
        previous = f
    if values[-1][0] != "inf":
        errors.append("missing the a = inf row")
    return errors


def _check_bounds(text: str) -> list[str]:
    errors = []
    for row in _rows(text):
        M = row[0]
        q_lower, q_upper, cl_lower, mga, mpa = map(float, row[1:])
        for name, v in (("q_lower", q_lower), ("q_upper", q_upper), ("cl_lower", cl_lower)):
            if not 0.0 <= v <= 1.0:
                errors.append(f"M={M}: {name} = {v} outside [0, 1]")
        if q_lower > q_upper:
            errors.append(f"M={M}: q_lower {q_lower} > q_upper {q_upper}")
        if abs(mga - (cl_lower - q_upper)) > INVARIANT_TOL:
            errors.append(f"M={M}: mga {mga} != cl_lower - q_upper")
        if abs(mpa - (cl_lower - q_lower)) > INVARIANT_TOL:
            errors.append(f"M={M}: mpa {mpa} != cl_lower - q_lower")
    return errors


def _single_mode_fidelity(v1: float, v2: float) -> float:
    """Root fidelity of two single-mode thermal states with quadrature
    variances v1, v2 (shot noise 1/2): (sqrt(D + d) - sqrt(d))^(-1/2) with
    D = det(V1 + V2) and d = 4 (det V1 - 1/4)(det V2 - 1/4)."""
    big = (v1 + v2) ** 2
    small = 4.0 * (v1 * v1 - 0.25) * (v2 * v2 - 0.25)
    return (math.sqrt(big + small) - math.sqrt(small)) ** -0.5


def channel_fidelities(argv: list[str]) -> tuple[float, float]:
    """(F_q, F_cl) for the channel pair named by the CLI flags: the
    infinite-squeezing Choi fidelity and the vacuum-probe fidelity."""
    if _flag(argv, "--kind") == "additive":
        tau = 1.0
        nu_t, nu_b = float(_flag(argv, "--nuT")), float(_flag(argv, "--nuB"))
        f_q = 2.0 * math.sqrt(nu_t * nu_b) / (nu_t + nu_b)
    else:
        tau = float(_flag(argv, "--tau"))
        e_t, e_b = float(_flag(argv, "--epsT")), float(_flag(argv, "--epsB"))
        cross = math.sqrt((4.0 * e_t**2 - 1.0) * (4.0 * e_b**2 - 1.0))
        f_q = math.sqrt((4.0 * e_t * e_b + 1.0 + cross) / 2.0) / (e_t + e_b)
        nu_t, nu_b = e_t * abs(1.0 - tau), e_b * abs(1.0 - tau)
    f_cl = _single_mode_fidelity(tau / 2.0 + nu_t, tau / 2.0 + nu_b)
    return f_q, f_cl


def pixel_error_interval(F: float, M: int) -> tuple[float, float]:
    """((1 - sqrt(1 - F^2M)) / 2, F^M / 2), written without cancellation."""
    x = F ** (2 * M)
    return 0.5 * x / (1.0 + math.sqrt(1.0 - x)), 0.5 * F**M


def _check_simulate(text: str, argv: list[str]) -> tuple[list[str], dict]:
    lines = text.splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        return [f"header {lines[:1]} != {SIMULATE_HEADER!r}"], {}
    grid = [int(v) for v in _flag(argv, "--M").split(",")]
    rows = _rows(text)
    if [r[0] for r in rows] != [str(M) for M in grid]:
        return [f"M column {[r[0] for r in rows]} != requested grid {grid}"], {}
    f_q, f_cl = channel_fidelities(argv)
    errors, degenerate = [], 0
    for row in rows:
        if len(row) != 12:
            errors.append(f"row {row[0]} has {len(row)} cells")
            continue
        M = int(row[0])
        p_cl_low, p_cl_up, p_q_low, p_q_up = map(float, row[1:5])
        e_cl_l, e_cl_u, e_q_l, e_q_u, de_min, de_max, stderr = map(float, row[5:])
        expected = pixel_error_interval(f_cl, M) + pixel_error_interval(f_q, M)
        for name, got, want in zip(
            ("p_cl_low", "p_cl_up", "p_q_low", "p_q_up"),
            (p_cl_low, p_cl_up, p_q_low, p_q_up),
            expected,
        ):
            if not _close(got, want, REFERENCE_RTOL):
                errors.append(f"M={M}: {name} {got} != pixel error bound {want}")
        for name, e in (("E_cl_L", e_cl_l), ("E_cl_U", e_cl_u), ("E_q_L", e_q_l), ("E_q_U", e_q_u)):
            if not 0.0 <= e <= 1.0:
                errors.append(f"M={M}: {name} = {e} outside [0, 1]")
        if abs(de_min - (e_cl_l - e_q_u)) > INVARIANT_TOL:
            errors.append(f"M={M}: dE_min != E_cl_L - E_q_U")
        if abs(de_max - (e_cl_l - e_q_l)) > INVARIANT_TOL:
            errors.append(f"M={M}: dE_max != E_cl_L - E_q_L")
        if not stderr >= 0.0:
            errors.append(f"M={M}: stderr_max = {stderr}")
        if e_q_l == 0.0 and e_q_u == 0.0:
            degenerate += 1
    # recorded, neither required nor hidden: rows whose quantum-side errors
    # are both exactly zero carry no information about the advantage
    return errors, {"rows_with_zero_quantum_errors": degenerate}


def check_job(name: str, argv: list[str], text: str) -> tuple[list[str], dict]:
    """(failures, notes) for one CLI job's CSV output."""
    command = argv[0]
    if command == "simulate":
        return _check_simulate(text, argv)
    reference = (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")
    errors = compare_reference(text, reference)
    if command == "fidelity":
        errors += _check_fidelity(text)
    elif command == "bounds":
        errors += _check_bounds(text)
    return errors, {"identical_to_reference": text == reference}
