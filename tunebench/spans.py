"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces public functions in the namespace of the
module that calls them with timing wrappers, runs one command, and puts
the originals back.  ``pipeline`` binds its own ``induce``,
``levenshtein``, ``applicable``, ``apply_mutation``, ``random_mutation``,
``expand`` and ``pai``; ``mutation`` calls its own ``applicable``,
``apply_mutation`` and ``validate_grammar``; ``cli`` binds
``load_corpus``, ``run``, ``run_per_kind``, ``induce`` and ``pai``.  A
call goes through exactly one wrapper, the one of the namespace it was
looked up in.

Each call leaves a span: binding, start, end, parent span and a note
taken from its arguments or result (notes a tune's length, an edit
distance's operands, a mutation's kind and attempts).  Spans nest, so a
layer's self time is its spans' durations minus the time their child
spans cover.  Metrics name a function by the module that defines it
(``sequitur.induce``), whichever namespace it was called through.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

#: Calling module -> names wrapped in its namespace.
WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("load_corpus", "run", "run_per_kind", "induce", "pai"),
    "pipeline": ("induce", "levenshtein", "applicable", "apply_mutation",
                 "random_mutation", "expand", "pai"),
    "mutation": ("applicable", "apply_mutation", "validate_grammar"),
}

ROOT = "cli.main"
JOB_FUNCTIONS = ("pipeline.run", "pipeline.run_per_kind")


def _note(function: str) -> Callable | None:
    """What a span of ``function`` keeps, computed after the call."""
    if function == "sequitur.induce":
        return lambda args, out: len(args[0])
    if function == "metrics.levenshtein":
        return lambda args, out: (args[0], args[1], out)
    if function == "mutation.apply_mutation":
        return lambda args, out: (out.kind.code, out.attempts)
    if function == "sequitur.expand":
        return lambda args, out: out
    if function in JOB_FUNCTIONS:
        return lambda args, out: args[0]
    return None


class Span:
    __slots__ = ("binding", "start", "end", "parent", "note")

    def __init__(self, binding: str, start: int, end: int, parent: int,
                 note=None) -> None:
        self.binding = binding
        self.start = start
        self.end = end
        self.parent = parent
        self.note = note


class Tracer:
    """Spans of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.function: dict[str, str] = {ROOT: ROOT}
        self._stack: list[int] = []

    def _wrap(self, binding: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = _note(self.function[binding])

        def traced(*args, **kwargs):
            span = Span(binding, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, out)
            return out

        return traced

    @contextmanager
    def installed(self, modules: dict) -> Iterator[None]:
        """Wrap every WRAPPED name in ``modules`` (calling module name ->
        module object) and restore the originals afterwards."""
        saved = []
        try:
            for caller, names in WRAPPED.items():
                module = modules[caller]
                for name in names:
                    fn = getattr(module, name)
                    binding = f"{caller}.{name}"
                    self.function[binding] = (
                        f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
                    saved.append((module, name, fn))
                    setattr(module, name, self._wrap(binding, fn))
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def call(self, fn: Callable, *args):
        """Run the traced command itself as the root span."""
        return self._wrap(ROOT, fn)(*args)

    def calls(self, binding: str) -> int:
        return sum(1 for s in self.spans if s.binding == binding)

    def job_of(self, index: int) -> int:
        """Index of the job span enclosing span ``index``, or -1."""
        while index >= 0:
            if self.function[self.spans[index].binding] in JOB_FUNCTIONS:
                return index
            index = self.spans[index].parent
        return -1


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tracers: list[Tracer], kind_codes: list[str],
                  max_attempts: int) -> dict[str, float]:
    """Per-layer metrics over traced runs of one command.

    Counts and seconds are per run (totals divided by the number of
    runs); per-unit costs divide total time by total work; job times are
    pooled over all runs.  ``.s`` is a function's inclusive time,
    ``<layer>.self_s`` the layer's exclusive time.
    """
    n = len(tracers)
    sums: dict[str, float] = defaultdict(float)
    job_ms: list[float] = []
    kind_ns: dict[str, float] = defaultdict(float)
    kind_attempts: dict[str, int] = defaultdict(int)
    kind_calls: dict[str, int] = defaultdict(int)
    for tracer in tracers:
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            function = tracer.function[span.binding]
            layer = function.split(".", 1)[0]
            took = span.end - span.start
            sums[f"{function}.calls"] += 1
            sums[f"{function}.ns"] += took
            sums[f"{layer}.self_ns"] += own
            if function == "sequitur.induce":
                sums["induce.notes"] += span.note
            elif function == "metrics.levenshtein":
                sums["levenshtein.cells"] += len(span.note[0]) * len(span.note[1])
            elif function == "mutation.apply_mutation" and span.note:
                code, attempts = span.note
                kind_ns[code] += took
                kind_attempts[code] += attempts
                kind_calls[code] += 1
                sums["mutation.attempts"] += attempts
                sums["mutation.fallback.count"] += attempts > max_attempts
            elif function in JOB_FUNCTIONS:
                job_ms.append(took / 1e6)

    def per_run(key: str) -> float:
        return sums[key] / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "cli.self_s": per_run("cli.self_ns") / 1e9,
        "corpus.load_corpus.s": per_run("corpus.load_corpus.ns") / 1e9,
        "pipeline.self_s": per_run("pipeline.self_ns") / 1e9,
        "pipeline.jobs": float(len(job_ms)),
        "pipeline.job_ms.p50": statistics.median(job_ms) if job_ms else 0.0,
        "pipeline.job_ms.p90": (statistics.quantiles(job_ms, n=10)[-1]
                                if len(job_ms) > 1 else max(job_ms, default=0.0)),
        "sequitur.induce.calls": per_run("sequitur.induce.calls"),
        "sequitur.induce.s": per_run("sequitur.induce.ns") / 1e9,
        "sequitur.induce.us_per_note": ratio(sums["sequitur.induce.ns"] / 1e3,
                                             sums["induce.notes"]),
        "sequitur.expand.s": per_run("sequitur.expand.ns") / 1e9,
        "sequitur.pai.s": per_run("sequitur.pai.ns") / 1e9,
        "mutation.self_s": per_run("mutation.self_ns") / 1e9,
        "mutation.applicable.calls": per_run("mutation.applicable.calls"),
        "mutation.applicable.s": per_run("mutation.applicable.ns") / 1e9,
        "mutation.apply_mutation.calls": per_run("mutation.apply_mutation.calls"),
        "mutation.apply_mutation.s": per_run("mutation.apply_mutation.ns") / 1e9,
        "mutation.attempts": per_run("mutation.attempts"),
        "mutation.accept_ratio": ratio(sums["mutation.apply_mutation.calls"],
                                       sums["mutation.attempts"]),
        "mutation.fallback.count": per_run("mutation.fallback.count"),
    }
    for code in kind_codes:
        out[f"mutation.kind.{code}.us"] = ratio(kind_ns[code] / 1e3,
                                                kind_calls[code])
        out[f"mutation.kind.{code}.attempts"] = ratio(kind_attempts[code],
                                                      kind_calls[code])
    out.update({
        "model.validate_grammar.calls": per_run("model.validate_grammar.calls"),
        "model.validate_grammar.us_per_call": ratio(
            sums["model.validate_grammar.ns"] / 1e3,
            sums["model.validate_grammar.calls"]),
        "metrics.levenshtein.calls": per_run("metrics.levenshtein.calls"),
        "metrics.levenshtein.s": per_run("metrics.levenshtein.ns") / 1e9,
        "metrics.levenshtein.ns_per_cell": ratio(sums["metrics.levenshtein.ns"],
                                                 sums["levenshtein.cells"]),
    })
    return out
