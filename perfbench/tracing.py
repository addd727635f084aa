"""Traced stage replay: spans recorded around seqaccel's public calls.

A replay runs one case again through the public functions the pipeline
is made of (a fresh generator, `ratio_stream` / `partial_sums`,
`TransformSpec.apply`, `last_defined` / `at`, `render_decimal`, the CLI
parser), with two `NumStream` subclasses at the layer boundaries:

* `SourceBoundary` between the generator and the pipeline, which times
  and counts every source cell generated (`sequences.generate`);
* `InputBoundary` at the transform's input, which counts every read and
  records each prepared cell it computes as an `estimators.prepare` span.

Streams are lazy, so preparation and generation happen inside the
transform's span; a layer's time is its self time (its spans minus their
children). Spans live in memory and are written out once, at the end.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from seqaccel import (
    AtIndex,
    GConvention,
    Kind,
    Method,
    NumStream,
    TakeLast,
    TransformSpec,
    Undefined,
    UndefinedReason,
    accelerate_sequence,
    from_function,
    growth_coefficient,
    is_defined,
    last_defined,
    load_sequence,
    partial_sums,
    ratio_stream,
    render_decimal,
    sum_series,
    take,
)
from seqaccel.sequences import BUILTIN_SEQUENCES

PIPELINES = {
    # command: (entry point, preparation, minimum take-last terms)
    "growth-coeff": (growth_coefficient, ratio_stream, 2),
    "sum-series": (sum_series, partial_sums, 1),
    "accelerate": (accelerate_sequence, lambda s: s, 1),
}
STAGES = ("sequences.generate", "estimators.prepare", "transforms.apply",
          "estimators.stability", "scalars.render")


class Tracer:
    """Spans as [name, start, end, parent, call, busy, count], in memory.

    Leaf spans of one name under one parent are merged into one record
    whose `busy` is their summed duration and `count` their number; this
    keeps one span per parent for thousands of generated cells.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.call = None
        self._open: list[int] = []
        self._merged: dict[tuple, int] = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._parent(), self.call, 0.0, 1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record = self.spans[index]
            record[2] = perf_counter()
            record[5] = record[2] - record[1]

    def leaf(self, name: str, start: float, end: float) -> None:
        key = (self._parent(), name)
        index = self._merged.get(key)
        if index is None:
            self._merged[key] = len(self.spans)
            self.spans.append([name, start, end, key[0], self.call, end - start, 1])
        else:
            record = self.spans[index]
            record[2] = end
            record[5] += end - start
            record[6] += 1

    def _parent(self):
        return self._open[-1] if self._open else None

    def stage_times(self, first: int) -> dict[str, float]:
        """Self time per stage over spans[first:], one call's replay.

        Everything under `estimators.stability` counts as stability.
        """
        spans = self.spans[first:]
        child_busy = [0.0] * len(spans)
        for s in spans:
            if s[3] is not None and s[3] >= first:
                child_busy[s[3] - first] += s[5]
        totals = dict.fromkeys(STAGES, 0.0)
        for i, s in enumerate(spans):
            stage, parent = s[0], s[3]
            while parent is not None and parent >= first:
                if self.spans[parent][0] == "estimators.stability":
                    stage = "estimators.stability"
                parent = self.spans[parent][3]
            if stage in totals:
                totals[stage] += s[5] - child_busy[i]
        return totals

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "call", "busy", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class SourceBoundary(NumStream):
    """The source as the pipeline sees it: generated cells timed and counted."""

    __slots__ = ("inner", "cells", "consumed")

    def __init__(self, inner: NumStream, tracer: Tracer):
        def compute(i):
            start = perf_counter()
            value = inner.at(i)
            tracer.leaf("sequences.generate", start, perf_counter())
            self.cells += 1
            self.consumed = max(self.consumed, i + 1)
            return value

        super().__init__(compute, inner.length)
        self.inner = inner
        self.cells = 0
        self.consumed = 0


class InputBoundary(NumStream):
    """The transform's input: counts reads and computed (distinct) cells."""

    __slots__ = ("reads", "computes")

    def __init__(self, inner: NumStream, tracer: Tracer):
        def compute(i):
            self.computes += 1
            with tracer.span("estimators.prepare"):
                return inner.at(i)

        super().__init__(compute, inner.length)
        self.reads = 0
        self.computes = 0

    def at(self, i):
        self.reads += 1
        return super().at(i)


def spec_of(call) -> TransformSpec:
    return TransformSpec(Method(call.method), Kind(call.kind), call.order,
                         GConvention(call.conv))


def mode_of(call):
    return TakeLast() if call.index is None else AtIndex(call.index)


def fresh_source(call, root) -> NumStream:
    """A new source for one call, as each CLI run builds one."""
    if call.generator:
        return BUILTIN_SEQUENCES[call.generator]()
    if call.model is not None:
        return from_function(call.model.cell)
    return load_sequence(root / call.path)


def run_pipeline(call, root):
    """The untraced call; returns its AccelerationReport."""
    entry = PIPELINES[call.command][0]
    return entry(spec_of(call), fresh_source(call, root), call.terms,
                 digits=call.digits, mode=mode_of(call))


def bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length() if isinstance(
        value, Fraction) else 0


@dataclass
class Replay:
    """What one traced replay produced and counted."""

    estimate: object = None
    rendered: str | None = None
    digits_stable: int | None = None
    terms_used: int = 0
    error: str | None = None  # exception raised by render_decimal
    cells: int = 0
    reads: int = 0
    computes: int = 0
    render_bits: int = 0
    source: NumStream | None = None  # the generator behind the boundary


def replay_pipeline(call, tracer: Tracer, root) -> Replay:
    """Re-run one pipeline call stage by stage, with spans at each boundary.

    Mirrors estimators._report: evaluate, rerun one step shorter for the
    stability diagnostic, then render both.
    """
    _, prepare, min_terms = PIPELINES[call.command]
    spec, n, index = spec_of(call), call.terms, call.index
    src = SourceBoundary(fresh_source(call, root), tracer)
    out = Replay()

    def evaluate(n_terms, at):
        with tracer.span("estimators.prepare"):
            prepared = prepare(take(src, n_terms)) if at is None else prepare(src)
        boundary = InputBoundary(prepared, tracer)
        with tracer.span("transforms.apply"):
            stream = spec.apply(boundary)
            value = last_defined(stream) if at is None else stream.at(at)
        out.reads += boundary.reads
        out.computes += boundary.computes
        return value

    out.estimate = evaluate(n, index)
    out.terms_used, out.cells, out.source = src.consumed, src.cells, src.inner
    with tracer.span("estimators.stability"):
        previous = Undefined(UndefinedReason.OUT_OF_RANGE)
        if index is None:
            if n - 1 >= min_terms and (src.length is None or src.length >= n - 1):
                previous = evaluate(n - 1, None)
        elif index > 0:
            previous = evaluate(n, index - 1)
    out.render_bits = max(bits(out.estimate), bits(previous))
    with tracer.span("scalars.render"):
        try:
            out.rendered = render_decimal(out.estimate, call.digits)
            out.digits_stable = _stable_digits(out.estimate, previous, call.digits)
        except ValueError as exc:
            out.error = f"{type(exc).__name__}: {exc}"
    return out


def _stable_digits(current, previous, up_to: int) -> int:
    """Leading digits on which the two renderings agree (as the report counts)."""
    if not (is_defined(current) and is_defined(previous)):
        return 0
    agreed = 0
    for d in range(1, up_to + 1):
        if render_decimal(current, d) != render_decimal(previous, d):
            break
        agreed = d
    return agreed


def replay_table(call, tracer: Tracer, root) -> tuple[str, float, float]:
    """The `table` command's work, stage by stage.

    Returns (stdout, load_sequence seconds, table loop seconds).
    """
    with tracer.span("sequences.load"):
        start = perf_counter()
        raw = take(load_sequence(root / call.path), call.terms)
        load = perf_counter() - start
    transformed = spec_of(call).apply(raw)
    lines = []
    with tracer.span("streams.table"):
        start = perf_counter()
        for i in range(call.terms):
            left = render_decimal(raw.at(i), call.digits)
            right = render_decimal(transformed.at(i), call.digits)
            lines.append(f"{i}\t{left}\t{right}\n")
        loop = perf_counter() - start
    return "".join(lines), load, loop
