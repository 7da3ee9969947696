"""Command-line surface: fidelity sweeps, discrimination bounds, classifier
simulations and temperature tables, all emitted as CSV with a manifest
sidecar.

Each ``cmd_*`` returns its CSV rows and extra manifest fields; ``main``
checks that ``--out`` can be written, runs it, writes the output and picks
the exit code: 0 success, 2 usage error (an unwritable ``--out`` among
them), 3 data error, 4 numeric non-convergence (CNN training whose loss or
parameters are not finite).  Every distinct warning raised during a command
goes to stderr once, as ``warning: <Category>: <message>``, and leaves the
exit code as it is.  Every fidelity comes from the closed forms of
:mod:`qthermal.channels`: no command builds a covariance matrix or works in
extended precision.  Probe copy (``--M``) and target count (``--k``) grids
must hold integers, and an empty ``--M``, ``--k``, ``--a``, ``--nbar`` or
``--eps`` grid is a usage error.  ``fidelity``, ``bounds`` and ``temp`` each
make one array call per grid.  Every CSV cell is a Python int or float
written with ``repr``, which round-trips it.  Output is deterministic:
identical flags, input files and seeds produce byte-identical CSVs.

:mod:`qthermal.cnn` is imported lazily: its body runs only for
``simulate --classifier cnn``.  The CNN flags' defaults come from
``TrainConfig``, which lives in :mod:`qthermal.classify`.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import re
import sys
import time
import warnings
from functools import partial

from . import __version__
from .bounds import ImageSpace, bounds, min_rel_probe_uniform
from .channels import (
    EnvironmentPair,
    fidelity_choi_inf,
    fidelity_classical,
    fidelity_finite,
    temperature_of,
)
from .classify import TrainConfig, advantage_regions, check_regions, nn_predictor
from .data import DEFAULT_THRESHOLD, load_splits
from .errors import EmptyTrainingSetError, IdxFormatError, NonFiniteLossError

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGENCE = 4

# ``_grid``: a range grid of this many steps or more is a usage error
_MAX_GRID_POINTS = 10**6


def _lazy_import(name: str):
    """``import name`` whose module body runs at the first attribute access
    (the stdlib ``LazyLoader`` recipe), registered in ``sys.modules`` and on
    its package as an import would be.  Python 3.11's lazy module is not
    thread-safe, so its first access must come before any thread starts."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


cnn = _lazy_import(f"{__package__}.cnn")


def _rows(rows) -> list[str]:
    """One CSV line per row of Python ints and floats, as ``.tolist()`` gives
    them: ``repr`` round-trips each, where numpy 2 would print an
    ``np.float64`` as ``np.float64(...)``."""
    return [",".join(map(repr, row)) for row in rows]


def _probe_out(out_path: str) -> None:
    """Raise ``OSError`` unless the CSV and its manifest can both be written;
    append mode truncates nothing, and a file it creates is removed again."""
    for path in (out_path, out_path + ".manifest"):
        existed = os.path.lexists(path)
        open(path, "ab").close()
        if not existed:
            os.remove(path)


def _emit(rows: list[str], manifest: list[str], out_path: str | None) -> None:
    text = "\n".join(rows) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with open(out_path + ".manifest", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(manifest) + "\n")
    else:
        sys.stdout.write(text)
        sys.stderr.write("\n".join(manifest) + "\n")


def _manifest(args: argparse.Namespace, extra: dict) -> list[str]:
    skip = {"func", "_t0"}
    lines = [
        f"command: {args.command}",
        f"version: {__version__}",
    ]
    for key in sorted(vars(args)):
        if key in skip or key == "command":
            continue
        lines.append(f"param {key}: {getattr(args, key)}")
    for key, val in extra.items():
        lines.append(f"{key}: {val}")
    lines.append(f"wall_time_s: {time.time() - args._t0:.3f}")
    return lines


def _grid(text: str, name: str) -> list[float]:
    """Comma list `a,b,c` or range `start:stop:step` (inclusive stop) of the
    ``name`` grid; an empty grid, or a range of ``_MAX_GRID_POINTS`` steps or
    more, is an error, raised before any point is built."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"grid range must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step
        if not (math.isfinite(steps) and steps < _MAX_GRID_POINTS):
            raise ValueError(f"{name} grid range {text!r} spans too many steps")
        # index the points instead of accumulating step, which drifts
        count = math.floor(steps + 1e-9) + 1
        grid = [start + i * step for i in range(max(count, 0))]
    else:
        grid = [float(p) for p in text.split(",") if p]
        if not all(map(math.isfinite, grid)):
            raise ValueError(f"grid values must be finite, got {text!r}")
    if not grid:
        raise ValueError(f"empty {name} grid")
    return grid


def _int_grid(text: str, name: str) -> list[int]:
    grid = _grid(text, name)
    if not all(v.is_integer() for v in grid):
        raise ValueError(f"{name} grid must hold integers, got {text!r}")
    return [int(v) for v in grid]


def _pair_from_args(args) -> EnvironmentPair:
    if args.kind == "additive":
        if args.nuT is None or args.nuB is None:
            raise ValueError("additive channels require --nuT and --nuB")
        return EnvironmentPair.additive(args.nuB, args.nuT)
    if args.tau is None or args.epsT is None or args.epsB is None:
        raise ValueError("thermal channels require --tau, --epsT and --epsB")
    return EnvironmentPair.thermal(args.tau, args.epsB, args.epsT)


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("thermal", "additive"), required=True,
                   help="thermal covers loss (tau<1) and amplifier (tau>1) channels")
    p.add_argument("--tau", type=float, help="common transmissivity/gain")
    p.add_argument("--epsT", type=float, help="target thermal parameter nbar+1/2")
    p.add_argument("--epsB", type=float, help="background thermal parameter nbar+1/2")
    p.add_argument("--nuT", type=float, help="target additive noise")
    p.add_argument("--nuB", type=float, help="background additive noise")


def cmd_fidelity(args) -> tuple[list[str], dict]:
    pair = _pair_from_args(args)
    grid = sorted(set(_grid(args.a, "squeezing")) | {0.5})
    # the last row, a = inf (``repr`` writes "inf"), is the infinitely squeezed limit
    fids = [*fidelity_finite(pair, grid).tolist(), fidelity_choi_inf(pair)]
    return ["a,F", *_rows(zip([*grid, math.inf], fids))], {}


def cmd_bounds(args) -> tuple[list[str], dict]:
    pair = _pair_from_args(args)
    if args.space == "uniform":
        space = ImageSpace.uniform(args.m)
    else:
        if args.k is None:
            raise ValueError(f"{args.space.upper()} spaces require --k")
        ks = _int_grid(args.k, "target count")
        if args.space == "cpf" and len(ks) != 1:
            raise ValueError("CPF spaces take a single --k")
        space = ImageSpace.bcpf(args.m, ks)

    M_grid = _int_grid(args.M, "probe copy")
    f_cl = fidelity_classical(pair)
    if args.energy == "classical":
        f_q = f_cl
    elif args.energy == "finite":
        f_q = fidelity_finite(pair, args.a)
    else:
        f_q = fidelity_choi_inf(pair)
    rep = bounds(space, M_grid, f_q, f_cl)
    columns = (rep.q_lower, rep.q_upper, rep.cl_lower, rep.mga, rep.mpa)
    rows = ["M,q_lower,q_upper,cl_lower,mga,mpa", *_rows(zip(M_grid, *(c.tolist() for c in columns)))]
    rows.append(f"# mbar_adv = {min_rel_probe_uniform(f_q, f_cl)!r}")
    return rows, {"F_q": f_q, "F_cl": f_cl}


def cmd_simulate(args) -> tuple[list[str], dict]:
    pair = _pair_from_args(args)
    M_grid = _int_grid(args.M, "probe copy")
    # every flag error, a count of 0 among them, fails before a dataset is read
    check_regions(M_grid, args.threads, args.trials, args.eval_size, args.p_override)
    if args.classifier == "cnn":
        config = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)
    if args.T == 0:
        raise EmptyTrainingSetError("training set is empty")
    training, evaluation = load_splits(args.T, args.eval_size, args.seed, args.data_dir, args.threshold)
    if training.provenance["kind"] == "synthetic":
        sys.stderr.write("note: no dataset directory given, using the synthetic digit set\n")
    digests = {**training.provenance.get("source", {}), **evaluation.provenance.get("source", {})}

    if args.classifier == "cnn":
        # the first access to the lazy cnn module, on the main thread before
        # advantage_regions starts its pool
        net = cnn.NetworkSpec(input_shape=(training.height, training.width),
                              classes=max(training.num_classes, evaluation.num_classes))

        def predictor_factory(noise):
            return partial(cnn.predict_labels, net, cnn.train(net, training, noise, config))
    else:
        nn = nn_predictor(training)

        def predictor_factory(noise):
            return nn

        # the predictor holds only its packed columns, so the training images
        # are freed here, before the jobs allocate their own
        training = None

    table = advantage_regions(
        predictor_factory,
        evaluation,
        pair,
        M_grid,
        trials=args.trials,
        master_seed=args.seed,
        threads=args.threads,
        p_override=args.p_override,
    )
    header = "M,p_cl_low,p_cl_up,p_q_low,p_q_up,E_cl_L,E_cl_U,E_q_L,E_q_U,dE_min,dE_max,stderr_max"
    cells = ((r.M, *(m.flip_probability for m in r.models.values()), *(e.mean for e in r.errors.values()),
              r.de_min, r.de_max, r.stderr_max) for r in table)
    return [header, *_rows(cells)], {"input_digests": digests}


def cmd_temp(args) -> tuple[list[str], dict]:
    if (args.nbar is None) == (args.eps is None):
        raise ValueError("give exactly one of --nbar or --eps")
    if args.eps is not None:
        nbars = [e - 0.5 for e in _grid(args.eps, "thermal parameter")]
    else:
        nbars = _grid(args.nbar, "occupation")
    temps = temperature_of(nbars, args.wavelength)
    return ["nbar,T_K,T_C", *_rows(zip(nbars, temps.tolist(), (temps - 273.15).tolist()))], {}


def _preparse(argv: list[str]) -> list[str]:
    """Join each token that starts with a minus and a digit (``-1e-13``,
    which argparse takes for a flag) to the flag before it, then insert the
    key=value lines of the subcommand's ``--config`` file, as single
    ``--key=value`` tokens, right after the subcommand as defaults; explicit
    flags, parsed later, win.

    The path is found by an argparse parser of its own, so ``--config PATH``,
    ``--config=PATH`` and their abbreviations all name it as the command's
    parser will; the flag stays in argv, so the manifest records the path.
    A flag without a path is left for the command's parser to report.
    """
    joined: list[str] = []
    for token in argv:
        if joined and re.match(r"-\.?\d", token) and re.fullmatch(r"--[^-=][^=]*", joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    argv = joined
    config = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    config.add_argument("--config")
    try:
        path = config.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv
    if path is None:
        return argv
    pre = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, val = line.partition("=")
                pre.append(f"--{key.strip()}={val.strip()}")
    return argv[:1] + pre + argv[1:]


def build_parser() -> argparse.ArgumentParser:
    """The ``qthermal`` parser with every subcommand and its flags."""
    parser = argparse.ArgumentParser(
        prog="qthermal",
        description="bounds and simulations for thermal-image channel discrimination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fid = sub.add_parser("fidelity", help="probe-state fidelity against squeezing")
    _add_channel_flags(fid)
    fid.add_argument("--a", default="0.5,2.5,10,100", help="squeezing grid (list or start:stop:step)")
    fid.set_defaults(func=cmd_fidelity)

    bnd = sub.add_parser("bounds", help="error-probability bounds over a probe grid")
    _add_channel_flags(bnd)
    bnd.add_argument("--space", choices=("uniform", "cpf", "bcpf"), default="uniform")
    bnd.add_argument("--m", type=int, required=True, help="pixel count")
    bnd.add_argument("--k", help="target count (cpf) or comma list (bcpf)")
    bnd.add_argument("--M", required=True, help="probe copies grid (list or start:stop:step)")
    bnd.add_argument("--energy", choices=("asymptotic", "classical", "finite"), default="asymptotic")
    bnd.add_argument("--a", type=float, default=10.0, help="squeezing for --energy finite")
    bnd.set_defaults(func=cmd_bounds)

    sim = sub.add_parser("simulate", help="classifier error regions on noisy images")
    _add_channel_flags(sim)
    sim.add_argument("--classifier", choices=("nn", "cnn"), default="nn")
    sim.add_argument("--M", required=True, help="probe copies grid")
    sim.add_argument("--T", type=int, default=10000, help="training set size")
    sim.add_argument("--eval-size", type=int, default=250, dest="eval_size")
    sim.add_argument("--trials", type=int, default=20)
    sim.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD, help="binarisation threshold")
    sim.add_argument("--data-dir", dest="data_dir", help="IDX dataset directory (or set QTHERMAL_DATASET_DIR)")
    sim.add_argument("--p-override", dest="p_override", type=float, help="force one flip probability")
    sim.add_argument("--threads", type=int, default=1,
                     help="concurrent (M, endpoint) jobs; with N > 1 set OPENBLAS_NUM_THREADS=1, "
                     "or each job's BLAS calls start their own threads and oversubscribe the cores")
    sim.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="cnn training epochs")
    sim.add_argument("--batch-size", dest="batch_size", type=int, default=TrainConfig.batch_size)
    sim.add_argument("--lr", type=float, default=TrainConfig.learning_rate, help="cnn learning rate")
    sim.set_defaults(func=cmd_simulate)

    tmp = sub.add_parser("temp", help="occupation to temperature table")
    tmp.add_argument("--wavelength", type=float, default=1e-3, help="probe wavelength in meters")
    tmp.add_argument("--nbar", help="occupation list")
    tmp.add_argument("--eps", help="thermal parameter list (nbar + 1/2)")
    tmp.set_defaults(func=cmd_temp)

    for p in (fid, bnd, sim, tmp):
        p.add_argument("--out", help="CSV output path (manifest written alongside)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value defaults file; flags take precedence")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _preparse(argv)
    except (OSError, UnicodeDecodeError) as exc:
        parser.exit(EXIT_USAGE, f"error: cannot read config file: {exc}\n")
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
        if args.out:
            _probe_out(args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_USAGE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows, extras = args.func(args)
        except ValueError as exc:
            if isinstance(exc, IdxFormatError):
                sys.stderr.write(f"data error: {exc}\n")
                return EXIT_DATA
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        except FileNotFoundError as exc:
            sys.stderr.write(f"data error: {exc}\n")
            return EXIT_DATA
        except NonFiniteLossError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_NONCONVERGENCE
        finally:
            for line in dict.fromkeys(
                f"warning: {w.category.__name__}: {w.message}\n" for w in caught
            ):
                sys.stderr.write(line)
    try:
        _emit(rows, _manifest(args, extras), args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
