"""In-memory spans around qthermal's public entry points.

``Tracer.install`` replaces each entry point in ``TARGETS`` by a timing
wrapper at every module attribute that is bound to it: the defining module
and every ``from .x import f`` binding in the other qthermal modules, which is
where callers resolve the name.  ``Tracer.restore`` puts the originals back.
Nothing under ``src/`` is edited.

A span is ``(id, parent, name, start, end, work)``.  Spans opened on a worker
thread with no open span of their own are parented to the innermost open span
of the thread that installed the tracer: in qthermal that is the call which
handed the work to the thread pool (``classify.estimate_error``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time


def _estimate_error_work(bound: inspect.BoundArguments) -> dict:
    args = bound.arguments
    samples = int(args["trials"]) * len(args["evaluation"])
    work = {"samples": samples}
    if args.get("predictor") is None:
        training = args["training"]
        # one multiply-add per pixel for every (query, training image) pair
        work["nn_gemm_flop"] = 2 * training.pixels * len(training) * samples
    return work


def _batch_work(bound: inspect.BoundArguments) -> dict:
    return {"images": len(bound.arguments["images"])}


# (module, attribute, span name, work function or None)
TARGETS = (
    ("qthermal.cli", "main", "cli.main", None),
    ("qthermal.gaussian", "gaussian_fidelity", "gaussian.gaussian_fidelity", None),
    ("qthermal.channels", "fidelity_finite", "channels.fidelity_finite", None),
    ("qthermal.channels", "fidelity_classical", "channels.fidelity_classical", None),
    ("qthermal.channels", "fidelity_choi_inf", "channels.fidelity_choi_inf", None),
    (
        "qthermal.channels",
        "fidelity_choi_inf_extrapolated",
        "channels.fidelity_choi_inf_extrapolated",
        None,
    ),
    ("qthermal.bounds", "bounds", "bounds.bounds", None),
    ("qthermal.data", "synthetic_digits", "data.synthetic_digits", None),
    ("qthermal.classify", "advantage_regions", "classify.advantage_regions", None),
    ("qthermal.classify", "estimate_error", "classify.estimate_error", _estimate_error_work),
    ("qthermal.classify", "trial_stream", "classify.trial_stream", None),
    ("qthermal.classify", "sample_noisy", "classify.sample_noisy", None),
    ("qthermal.cnn", "train", "cnn.train", None),
    ("qthermal.cnn", "loss_and_grad", "cnn.loss_and_grad", _batch_work),
    ("qthermal.cnn", "predict_labels", "cnn.predict_labels", None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, work_fn):
        signature = inspect.signature(fn) if work_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and stack is not home else None
            sid = next(self._ids)
            work = work_fn(signature.bind(*args, **kwargs)) if work_fn else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, work))

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qthermal" or key.startswith("qthermal."))
        ]
        for module_name, attr, name, work_fn in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, work_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarise(span_lists: list[list]) -> dict:
    """Per span name, over the span lists of several processes: calls,
    inclusive seconds, self seconds and summed work.

    Self time is a span's duration minus the part of it that its child spans
    cover, so concurrent children on worker threads are not counted twice.
    """
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": {}} for name in SPAN_NAMES}
    for spans in span_lists:
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for sid, _, name, start, end, work in spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
            for key, value in (work or {}).items():
                row["work"][key] = row["work"].get(key, 0) + value
    return out
