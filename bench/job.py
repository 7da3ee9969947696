"""Run one qthermal CLI job in a fresh interpreter and report its timings.

    python3 bench/job.py RESULT_JSON SPANS_JSON|- -- CLI_ARGS...

The interpreter times ``import qthermal`` and then ``qthermal.cli.main``
(the CLI module import included) on the monotonic clock, which the parent
process shares, and writes them with the exit code to RESULT_JSON.  When
SPANS_JSON is not ``-``, the entry points listed in ``spans.TARGETS`` are
wrapped for the duration of ``main`` and the spans are written there at the
end.  qthermal must come from the ``src/`` tree next to this directory.
"""

import json
import sys
import time
from pathlib import Path


def _numeric_environment() -> dict:
    import mpmath
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main() -> int:
    result_path, spans_path = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        sys.stderr.write("usage: job.py RESULT_JSON SPANS_JSON|- -- CLI_ARGS...\n")
        return 2
    argv = sys.argv[4:]

    import qthermal

    t_setup = time.monotonic()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(qthermal.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"qthermal imported from {qthermal.__file__}, not from {src}\n")
        return 3

    from qthermal import cli

    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.restore()
    t_end = time.monotonic()
    if tracer is not None:
        tracer.write(spans_path)

    result = {"t_setup": t_setup, "t_end": t_end, "rc": rc, "env": _numeric_environment()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
