#!/usr/bin/env python3
"""qthermal benchmark: paper-scale CLI workloads, end to end and per layer.

    python3 bench/run.py --workload analytic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1                # every workload in turn

Run it from the root of a source checkout; it needs no install.  Every CLI
job runs in a fresh interpreter (``bench/job.py``) that imports qthermal from
``src/`` and calls ``qthermal.cli.main``.  The workload seed reaches the
program only as ``--seed``.

``--trace 0`` repeats the workload's jobs for ``--seconds`` (at least
``MIN_PASSES`` times) and reports the end-to-end metrics: wall_s is the
median over passes of the summed job time, setup_s the median over job and
probe processes of interpreter start through ``import qthermal``, and
peak_rss_mb the median over passes of the largest max-RSS of the pass's job
processes.  ``--trace 1`` runs the
per-call microbenchmarks (``bench/micro.py``), then repeats pairs of passes,
one untraced and one with spans around each layer's entry points
(``bench/spans.py``), for ``--seconds``, and reports the per-layer metrics
as medians over the pairs.

Every job's CSV is checked (``bench/checks.py``); a failed check or nonzero
exit counts the job as failed and makes the command exit 1.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record of the run is written to
``bench/out/BENCH_<workload>_seed<n>_trace<t>.json``.

Measurement touches only the benchmark's own processes: it drops no caches,
traces nothing machine-wide and writes nothing under /proc or /sys.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_PROBES = 3
JOB_TIMEOUT_S = 150

# One BLAS/OpenMP thread per process, so that `--threads 2` fills the two
# cores the workloads are sized for; fixed here so that both sides of a
# comparison run with the same settings whatever the caller's environment.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

THERMAL = ["--kind", "thermal", "--tau", "0.99", "--epsB", "18.5", "--epsT", "20.2"]
ADDITIVE = ["--kind", "additive", "--nuB", "0.02", "--nuT", "0.01"]
BCPF_KS = ",".join(str(k) for k in range(100, 150))

# Grid steps are powers of two so that every grid point is exact in binary
# and the reference CSVs do not depend on how the CLI accumulates the grid.
WORKLOADS = {
    "analytic": {
        "fidelity-thermal": ["fidelity", *THERMAL, "--a", "0.5:100:0.0625"],
        "fidelity-additive": ["fidelity", *ADDITIVE, "--a", "0.5:100:0.0625"],
        "bounds-uniform": ["bounds", *THERMAL, "--m", "784", "--space", "uniform", "--M", "100:20000:100"],
        "bounds-cpf": ["bounds", *THERMAL, "--m", "784", "--space", "cpf", "--k", "150", "--M", "100:20000:100"],
        "temp": ["temp", "--eps", "0.53125:100:0.03125"],
    },
    "bounds-bcpf": {
        "bounds-bcpf": ["bounds", *THERMAL, "--m", "784", "--space", "bcpf", "--k", BCPF_KS, "--M", "2500,5000"],
    },
    "simulate-nn": {
        "simulate-nn": [
            "simulate", "--classifier", "nn", *THERMAL, "--M", "1000,2500", "--T", "10000",
            "--eval-size", "250", "--trials", "4", "--threads", "2",
        ],
    },
    "simulate-cnn": {
        "simulate-cnn": [
            "simulate", "--classifier", "cnn", *ADDITIVE, "--M", "10", "--T", "1000",
            "--eval-size", "250", "--trials", "4", "--epochs", "1", "--threads", "2",
        ],
    },
}

# The end-to-end metric, and the workload, that each per-layer metric should move.
MOVES = {
    "cli.main": "wall_s on analytic",
    "gaussian.gaussian_fidelity": "wall_s on analytic",
    "channels.fidelity_finite": "wall_s on analytic",
    "channels.fidelity_classical": "wall_s on analytic",
    "channels.fidelity_choi_inf": "wall_s on analytic",
    "channels.fidelity_choi_inf_extrapolated": "wall_s on analytic",
    "bounds.bounds": "wall_s on bounds-bcpf and analytic",
    "bounds.ms_per_point": "wall_s on bounds-bcpf and analytic",
    "data.synthetic_digits": "wall_s on simulate-nn and simulate-cnn",
    "classify.advantage_regions": "wall_s on simulate-nn and simulate-cnn",
    "classify.trial_stream": "wall_s on simulate-nn",
    "classify.sample_noisy": "wall_s on simulate-nn",
    "classify.estimate_error": "wall_s and peak_rss_mb on simulate-nn",
    "classify.samples": "context for simulate-nn",
    "classify.nn_gemm_gflop": "context for simulate-nn",
    "cnn.train": "wall_s on simulate-cnn",
    "cnn.loss_and_grad": "wall_s on simulate-cnn",
    "cnn.predict_labels": "wall_s on simulate-cnn",
    "cnn.train_images_per_s": "wall_s on simulate-cnn",
    "proc.cpu_s": "wall_s on simulate-nn and simulate-cnn",
    "proc.cpu_util": "wall_s on simulate-nn and simulate-cnn",
    "trace.overhead_s": "none: cost of tracing",
    "gaussian.fidelity_mixed_us": "wall_s on analytic",
    "gaussian.fidelity_nearpure_us": "wall_s on analytic",
    "channels.choi_inf_thermal_ms": "wall_s on analytic",
    "spaces.bcpf_functional_ms": "wall_s on bounds-bcpf",
    "classify.estimate_error_1trial_ms": "wall_s on simulate-nn",
    "cnn.loss_and_grad_b64_ms": "wall_s on simulate-cnn",
    "cnn.predict_labels_b250_ms": "wall_s on simulate-cnn",
}


def _moves(metric: str) -> str:
    for prefix in sorted(MOVES, key=len, reverse=True):
        if metric == prefix or metric.startswith(prefix + "."):
            return f"; moves {MOVES[prefix]}"
    return ""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own resource usage (wait4), killing it after
    ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage, False
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
    except BaseException:
        # interrupted or terminated: leave no child running behind us
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, True


def _spawn(cmd: list[str], stdout, stderr, timeout: float = JOB_TIMEOUT_S):
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr)
    usage, timed_out = _wait(proc, timeout)
    return proc, usage, timed_out, t_spawn, time.monotonic()


def setup_probe(workdir: Path) -> float:
    """Seconds from spawning an interpreter to the return of ``import qthermal``."""
    out = workdir / "probe.out"
    with open(out, "wb") as fh:
        proc, _, _, t_spawn, _ = _spawn(
            [sys.executable, "-c", "import qthermal, time; print(time.monotonic())"],
            fh,
            subprocess.DEVNULL,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"import qthermal failed with exit code {proc.returncode}")
    return float(out.read_text()) - t_spawn


def run_job(name: str, argv: list[str], seed: int, workdir: Path, traced: bool) -> dict:
    """Run one CLI job in a fresh interpreter; timings, usage, CSV and checks."""
    tag = f"{name}.{'traced' if traced else 'plain'}"
    csv = workdir / f"{tag}.csv"
    result_path = workdir / f"{tag}.result.json"
    spans_path = workdir / f"{tag}.spans.json"
    cli_argv = [*argv, "--seed", str(seed), "--out", str(csv)]
    cmd = [
        sys.executable, str(HERE / "job.py"), str(result_path),
        str(spans_path) if traced else "-", "--", *cli_argv,
    ]
    with open(workdir / f"{tag}.stderr", "wb") as err:
        proc, usage, timed_out, t_spawn, t_exit = _spawn(cmd, subprocess.DEVNULL, err)
    job = {
        "name": name,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "life_s": t_exit - t_spawn,
        "failures": [],
        "notes": {},
    }
    if timed_out or proc.returncode != 0 or not result_path.exists():
        stderr = (workdir / f"{tag}.stderr").read_text(errors="replace").strip()
        job["failures"].append(
            f"job exited with {proc.returncode}{' after timeout' if timed_out else ''}: {stderr[-400:]}"
        )
        return job
    result = json.loads(result_path.read_text())
    job.update(
        setup_s=result["t_setup"] - t_spawn,
        wall_s=result["t_end"] - result["t_setup"],
        env=result["env"],
    )
    if result["rc"] != 0:
        job["failures"].append(f"qthermal exited with code {result['rc']}")
        return job
    job["csv"] = csv.read_text(encoding="utf-8")
    failures, notes = checks.check_job(name, argv, job["csv"])
    job["failures"] += failures
    job["notes"] = notes
    if traced:
        job["spans"] = json.loads(spans_path.read_text())
    return job


def run_pass(workload: str, seed: int, workdir: Path, traced: bool = False) -> list[dict]:
    return [
        run_job(name, argv, seed, workdir, traced)
        for name, argv in WORKLOADS[workload].items()
    ]


def _wall(jobs: list[dict]) -> float:
    return sum(j.get("wall_s", 0.0) for j in jobs)


def _check_repeats(passes: list[list[dict]], label: str) -> None:
    """Identical flags and seed must give byte-identical CSVs."""
    first = {j["name"]: j.get("csv") for j in passes[0]}
    for jobs in passes[1:]:
        for j in jobs:
            if "csv" in j and first.get(j["name"]) is not None and j["csv"] != first[j["name"]]:
                j["failures"].append(f"CSV differs from the first {label} with the same seed")


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _repeat(run_once, seconds: float, start: float, minimum: int) -> list:
    """Call ``run_once`` at least ``minimum`` times, and again while one more
    call is expected to end within ``seconds`` of ``start``."""
    results = []
    t0 = time.monotonic()
    while len(results) < minimum or (
        time.monotonic() - start + (time.monotonic() - t0) / len(results) <= seconds
    ):
        results.append(run_once())
    return results


def measure_end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    setups = [setup_probe(workdir) for _ in range(SETUP_PROBES)]
    passes = _repeat(
        lambda: run_pass(workload, seed, workdir), seconds, time.monotonic(), MIN_PASSES
    )
    _check_repeats(passes, "pass")
    jobs = [j for p in passes for j in p]
    setups += [j["setup_s"] for j in jobs if "setup_s" in j]
    stats = {
        "wall_s": _stats([_wall(p) for p in passes]),
        "setup_s": _stats(setups),
        "peak_rss_mb": _stats([max(j["rss_mb"] for j in p) for p in passes]),
    }
    return jobs, stats, {"passes": len(passes), "setup_samples": setups}


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    layers = spans.summarise([j["spans"] for j in traced if "spans" in j])
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = layers[name]["calls"]
        metrics[f"{name}.self_s"] = layers[name]["self_s"]
    bounds = layers["bounds.bounds"]
    metrics["bounds.ms_per_point"] = (
        1e3 * bounds["total_s"] / bounds["calls"] if bounds["calls"] else 0.0
    )
    estimate = layers["classify.estimate_error"]["work"]
    metrics["classify.samples"] = estimate.get("samples", 0)
    metrics["classify.nn_gemm_gflop"] = estimate.get("nn_gemm_flop", 0) / 1e9
    train_s = layers["cnn.train"]["total_s"]
    trained = layers["cnn.loss_and_grad"]["work"].get("images", 0)
    metrics["cnn.train_images_per_s"] = trained / train_s if train_s else 0.0
    cpu = sum(j["cpu_s"] for j in plain)
    metrics["proc.cpu_s"] = cpu
    metrics["proc.cpu_util"] = cpu / sum(j["life_s"] for j in plain)
    metrics["trace.overhead_s"] = _wall(traced) - _wall(plain)
    return metrics


def run_micro(seed: int, workdir: Path) -> tuple[dict, list[str]]:
    out = workdir / "micro.json"
    with open(workdir / "micro.stderr", "wb") as err:
        proc, _, timed_out, _, _ = _spawn(
            [sys.executable, str(HERE / "micro.py"), str(out), str(seed)],
            subprocess.DEVNULL,
            err,
        )
    if timed_out or proc.returncode != 0:
        stderr = (workdir / "micro.stderr").read_text(errors="replace").strip()
        return {}, [f"microbenchmarks exited with {proc.returncode}: {stderr[-400:]}"]
    return {name: _stats(v) for name, v in json.loads(out.read_text()).items()}, []


def measure_layers(workload: str, seed: int, seconds: float, workdir: Path):
    """Microbenchmarks, then (untraced, traced) pass pairs for ``seconds``."""
    start = time.monotonic()
    stats, failures = run_micro(seed, workdir)
    pairs = _repeat(
        lambda: (run_pass(workload, seed, workdir), run_pass(workload, seed, workdir, traced=True)),
        seconds,
        start,
        1,
    )
    _check_repeats([p for pair in pairs for p in pair], "untraced pass")
    per_pair = [_layer_metrics(traced, plain) for plain, traced in pairs]
    for name in per_pair[0]:
        values = [m[name] for m in per_pair]
        if name.endswith(".calls") and len(set(values)) > 1:
            failures.append(f"{name} differs between traced passes: {values}")
        stats[name] = _stats(values)
    jobs = [j for pair in pairs for p in pair for j in p]
    return jobs, stats, {"pairs": len(pairs), "failures": failures}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown: not a git checkout"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown: unresolved {ref}"


def _load_catalogue() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, catalogue: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        # fill the byte-code and file caches: users do not pay these per run
        setup_probe(workdir)
        if trace:
            jobs, stats, extra = measure_layers(workload, seed, seconds, workdir)
            wanted = catalogue["per_layer"]
        else:
            jobs, stats, extra = measure_end_to_end(workload, seed, seconds, workdir)
            wanted = catalogue["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{j['name']}: {f}" for j in jobs for f in j["failures"]]
    failures += extra.pop("failures", [])
    failed = sum(1 for j in jobs if j["failures"])
    missing = [name for name in wanted if name not in stats]
    failures += [f"metric {name} was not measured" for name in missing]
    correct = not failures
    env = next((j["env"] for j in jobs if "env" in j), {})

    print(f"# workload {workload}: {catalogue['why'].get(workload, '')}")
    for name, argv in WORKLOADS[workload].items():
        print(f"#   job {name}: qthermal {' '.join(argv)} --seed {seed}")
    print(f"# seed {seed}; trace {int(trace)}; commit {_git_commit()}; nproc {os.cpu_count()}")
    print("# " + "; ".join(f"{k} {v}" for k, v in env.items()))
    print("# threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    for name, spec in wanted.items():
        s = stats.get(name)
        if s is None:
            continue
        spread = f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, " if "q1" in s else ""
        print(
            f"{name:42s} {s['median']:14.6g} {spec['unit']:15s} "
            f"({spread}n {s['n']}; {spec['better']} is better{_moves(name)})"
        )
    attempted = len(jobs)
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.3g} ratio")
    for failure in failures:
        print(f"FAILED {failure}")

    record = {
        "workload": workload,
        "jobs": WORKLOADS[workload],
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "environment": env,
        "thread_settings": THREAD_ENV,
        "measurement": (
            "only the benchmark's own processes were measured: no cache dropping, "
            "no machine-wide tracing, no writes under /proc or /sys"
        ),
        "metrics": stats,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "job_runs": [
            {k: v for k, v in j.items() if k not in ("csv", "env", "spans")} for j in jobs
        ],
        **extra,
    }
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": stats[name]["median"], "unit": spec["unit"]}
            for name, spec in wanted.items()
            if name in stats
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "qthermal" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qthermal sources under {SRC}\n")
        return 2
    catalogue = _load_catalogue()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), catalogue)
        for name in names
    }
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
