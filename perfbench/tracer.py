"""Run one benchmark op with spans recorded around calls into each layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py SPANS.json -c "from corners.cli import main; main()" ARGS...
    python3 perfbench/tracer.py SPANS.json perfbench/sweep.py ARGS...

The op runs exactly as it does untraced, after an import hook has wrapped
the functions named in ``WRAPPED``.  Each function is replaced in the
module that defines it, right after that module executes and before any
module that imports it runs, so names bound at import time (``from .chain
import ...``, ``verification._census = lru_cache(census)``) see the
wrapper too.  ``verification.SUITES`` holds the suite functions in a dict
built at import, so its values are wrapped in place.

A span is ``[parent, name, start_ns, end_ns, items]`` and its id is its
index in the list; ``parent`` is -1 at the top.  For a generator function
each ``next()`` is one span, with ``items`` 1 when it yielded; for a
function returning a tuple or list ``items`` is its length, else 1.
Spans stay in memory and are written as JSON when the op ends.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import json
import runpy
import sys
import time

WRAPPED = {
    "corners.tableaux": ("validate", "corner_stats", "to_record", "from_record"),
    "corners.chain": (
        "corner_event_probability_dp",
        "count_tableaux",
        "u_distribution",
        "corner_event_probability_formula",
        "expected_corners",
        "total_corners",
    ),
    "corners.enumerator": ("enumerate_shapes", "enumerate_tableaux", "extend_permutation", "census"),
    "corners.bijections": ("symmetric_to_type_b", "type_b_to_symmetric"),
    "corners.sampler": ("substream", "monte_carlo_corner_report", "sample_permutation_tableaux"),
    "corners.verification": ("run_suite",),
    "corners.cli": ("run_command",),
}


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def wrap(self, fn, name: str):
        clock, spans, stack = time.perf_counter_ns, self.spans, self.stack

        if inspect.isgeneratorfunction(fn):
            def next_spans(it):
                while True:
                    span = [stack[-1], name, clock(), 0, 0]
                    stack.append(len(spans))
                    spans.append(span)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[3] = clock()
                    span[4] = 1
                    yield value

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return next_spans(fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [stack[-1], name, clock(), 0, 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if isinstance(result, (tuple, list)):
                span[4] = len(result)
            return result

        return wrapper

    def instrument(self, module) -> None:
        layer = module.__name__.rpartition(".")[2]
        for attr in WRAPPED[module.__name__]:
            setattr(module, attr, self.wrap(getattr(module, attr), f"{layer}.{attr}"))
        if module.__name__ == "corners.verification":
            for key, fn in module.SUITES.items():
                module.SUITES[key] = self.wrap(fn, f"verify.{key}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


class _InstrumentingFinder:
    """Meta path finder that wraps a module's functions right after it runs."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def find_spec(self, name, path, target=None):
        if name not in WRAPPED:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_instrument(module):
            exec_module(module)
            self.recorder.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def main(argv: list[str]) -> None:
    spans_path, target, *rest = argv
    recorder = Recorder()
    sys.meta_path.insert(0, _InstrumentingFinder(recorder))
    try:
        if target == "-c":
            code, *args = rest
            sys.argv = ["-c", *args]
            exec(compile(code, "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
