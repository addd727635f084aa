"""End-to-end pipelines: growth-coefficient estimation and series summation.

`growth_coefficient` estimates the base a of s[n] ~ a^n * f(n) (f
subexponential) by accelerating the ratio sequence s[n+1]/s[n];
`sum_series` assigns a value to a series - convergent or divergent - by
accelerating its partial sums; `accelerate_sequence` applies an
accelerator to raw input unchanged. All three return an
`AccelerationReport` carrying the exact estimate, its decimal rendering
and a cheap stability diagnostic. All three take the source as a
`NumStream`; `sequences.open_source` and `sequences.load_sequence` make
one from a built-in name or a file. Each report builds its pipeline once
and reads each source cell once.

Two evaluation modes exist. `TakeLast` truncates the input to its first
n terms, transforms, and reads the last defined cell - the batch shape
used for the worked examples. `AtIndex(i)` transforms the untruncated
source and reads cell i, which is the natural reading of "the value
after i iterations" and also works when truncation would leave the
transformed stream empty.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .scalars import (
    Element,
    Undefined,
    UndefinedReason,
    _expansion,
    _rounded,
    div,
    is_defined,
    render_decimal,
)
from .streams import NumStream, _View, last_defined, partial_sums, take
from .transforms import TransformSpec


class TakeLast(namedtuple("TakeLast", ())):
    """Truncate to the first n terms, transform, read the last defined cell."""

    __slots__ = ()

    def __bool__(self):
        return True  # an empty tuple is falsy; a mode is not


class AtIndex(namedtuple("AtIndex", "index")):
    """Transform the untruncated source and read one output cell.

    The term count (`n_terms`, the CLI's ``--terms``) applies only to
    `TakeLast`; in this mode it is ignored.
    """

    __slots__ = ()

    def __new__(cls, index: int):
        if index < 0:
            raise ValueError(f"output index must be >= 0, got {index}")
        return super().__new__(cls, index)


EvaluationMode = TakeLast | AtIndex


class InsufficientTermsError(ValueError):
    """The source cannot supply the requested number of terms."""


class AccelerationReport(namedtuple("AccelerationReport",
                                    "terms_used estimate rendered digits_stable")):
    """Outcome of one accelerated run: the exact `estimate` and its `rendered` text.

    `terms_used` counts the source elements actually forced (measured, not
    assumed) by the estimate. `digits_stable` counts how many leading
    significant digits the estimate shares with the previous output cell
    of the same run: the last defined cell of the stream cut one cell
    shorter (TakeLast), or cell i-1 (AtIndex(i)). That is the value a run
    with one term (or one output index) less gives. It is 0 when that
    cell is undefined or does not exist.
    """

    __slots__ = ()


def ratio_stream(s: NumStream) -> NumStream:
    """Consecutive ratios s[i+1]/s[i], skipping the leading zero prefix.

    The result starts at the first ratio whose denominator is nonzero, so
    sequences with leading zeros (A114851 starts 0, 0, ...) stay usable.
    Zero denominators after that point yield undefined cells. The leading
    scan runs at construction; it terminates for any finite stream and for
    any infinite stream that is not identically zero.
    """
    start = 0
    while (s.length is None or start < s.length) and s.at(start) == 0:
        start += 1
    if s.length is None:
        length = None
    else:
        length = max(s.length - start - 1, 0)
    return NumStream(lambda i: div(s.at(start + i + 1), s.at(start + i)), length)


def _require_terms(source: NumStream, n_terms: int) -> None:
    """Reject a finite source shorter than the n_terms asked of it."""
    if source.length is not None and source.length < n_terms:
        raise InsufficientTermsError(f"source provides {source.length} terms, {n_terms} requested")


def _stable_digits(current: Element, previous: Element, up_to: int) -> int:
    """Leading significant digits on which the two renderings agree.

    That is d - 1 for the first d <= up_to at which `render_decimal(_, d)`
    prints the two values differently, and up_to if there is none. 0.1949
    and 0.1951 render alike at 3 digits (0.195) but not at 2 (0.19, 0.20),
    so they agree on 1.
    """
    if not (is_defined(current) and is_defined(previous)):
        return 0
    if current == previous:
        return up_to
    if current == 0 or previous == 0 or (current < 0) != (previous < 0):
        return 0
    a, b = _expansion(current, up_to), _expansion(previous, up_to)
    for d in range(1, up_to + 1):
        if _rounded(a, d) != _rounded(b, d):
            return d - 1
    return up_to


def _report(
    transform: TransformSpec,
    source: NumStream,
    prepare: Callable[[NumStream], NumStream],
    n_terms: int | None,
    mode: EvaluationMode,
    digits: int,
    min_terms: int,
) -> AccelerationReport:
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    take_last = isinstance(mode, TakeLast)
    if take_last:
        if n_terms is None or n_terms < min_terms:
            raise InsufficientTermsError(f"need at least {min_terms} terms, got {n_terms}")
        _require_terms(source, n_terms)

    # The source cut to n terms (TakeLast), on the source's cache.
    view = _View(source, n_terms if take_last else source.length)
    stream = transform.apply(prepare(view))
    estimate = last_defined(stream) if take_last else stream.at(mode.index)
    # Before the stability read, which may force cells the estimate did not.
    terms_used = view.highest + 1

    # Stability diagnostic: the run one step shorter. Every in-range output
    # cell of ratio_stream, partial_sums, levin and e_algorithm reads only
    # in-range input cells, so the (n-1)-term pipeline is this stream cut
    # one cell shorter, and the (i-1) run is this stream's cell i-1. At
    # n = min_terms the stream has at most one cell, so the cut is empty.
    if take_last:
        previous = last_defined(take(stream, max(stream.length - 1, 0)))
    elif mode.index > 0:
        previous = stream.at(mode.index - 1)
    else:
        previous = Undefined(UndefinedReason.OUT_OF_RANGE)

    return AccelerationReport(terms_used, estimate, render_decimal(estimate, digits),
                              _stable_digits(estimate, previous, digits))


def growth_coefficient(
    transform: TransformSpec,
    source: NumStream,
    n_terms: int | None = None,
    *,
    digits: int = 10,
    mode: EvaluationMode = TakeLast(),
) -> AccelerationReport:
    """Estimate the exponential growth base of an integer sequence.

    Takes n terms, forms the ratio stream, accelerates it, and reads the
    result per `mode`. Needs n >= 2 in TakeLast mode.
    """
    return _report(transform, source, ratio_stream, n_terms, mode, digits, 2)


def sum_series(
    transform: TransformSpec,
    terms: NumStream,
    n_terms: int | None = None,
    *,
    digits: int = 10,
    mode: EvaluationMode = TakeLast(),
) -> AccelerationReport:
    """Sum a series (convergent or divergent) by accelerating partial sums."""
    return _report(transform, terms, partial_sums, n_terms, mode, digits, 1)


def accelerate_sequence(
    transform: TransformSpec,
    source: NumStream,
    n_terms: int | None = None,
    *,
    digits: int = 10,
    mode: EvaluationMode = TakeLast(),
) -> AccelerationReport:
    """Apply an accelerator to the raw input sequence, no preprocessing."""
    return _report(transform, source, lambda s: s, n_terms, mode, digits, 1)
