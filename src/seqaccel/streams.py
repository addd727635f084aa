"""Lazy, memoizing numeric streams and the combinators built on them.

A `NumStream` is a potentially infinite sequence of `Element` cells,
computed on demand and cached so that every cell is computed once.
`from_function` and `from_values` coerce other values (`as_element`).
Extent is explicit: `length is None` means infinite, otherwise the
stream is finite and reading past the end yields
`Undefined(OUT_OF_RANGE)` rather than raising. Indexing is 0-based
throughout; combinators that need the classic 1-based position n use
n = i + 1. Each pipeline stage is one stream that reads its input's
cells directly, with no shifted view of the input in between: one cell
by `at`, or the first n of them by `prefix`, which reads as `at` would.

Streams are safe to read from several threads: the cell cache is
write-once (the first computed value for an index is the one every
reader sees), and stateful producers serialize their updates.
"""
from __future__ import annotations

from _thread import allocate_lock  # threading.Lock, without importing threading
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import gcd

from .scalars import (
    Element,
    Undefined,
    UndefinedReason,
    _slot_sum,
    add,
    as_element,
    first_undefined,
    is_defined,
    propagated,
    sub,
)


class NumStream:
    """On-demand sequence of Elements with a write-once cell cache.

    `compute(i)` returns cell i as an `Element`, a `Fraction` or an
    `Undefined`; `from_function` and `from_values` coerce other values.
    """

    __slots__ = ("_compute", "_cache", "_length")

    def __init__(self, compute: Callable[[int], Element], length: int | None = None):
        if length is not None and length < 0:
            raise ValueError(f"stream length must be >= 0, got {length}")
        self._compute = compute
        self._cache: dict[int, Element] = {}
        self._length = length

    @property
    def length(self) -> int | None:
        """Finite length, or None for an infinite stream."""
        return self._length

    def at(self, i: int) -> Element:
        """Cell i; past-the-end reads of a finite stream are OUT_OF_RANGE."""
        if i < 0:
            raise ValueError(f"stream index must be >= 0, got {i}")
        if self._length is not None and i >= self._length:
            return Undefined(UndefinedReason.OUT_OF_RANGE)
        cell = self._cache.get(i)
        if cell is None:
            # setdefault keeps whichever value landed first, so concurrent
            # readers of a fresh cell always agree.
            cell = self._cache.setdefault(i, self._compute(i))
        return cell

    def prefix(self, n: int) -> list[Element]:
        """The first n cells (fewer if the stream is shorter), each forced as `at`
        would force it, in index order, in one call instead of one per cell."""
        end = n if self._length is None else min(n, self._length)
        if type(self).at is not NumStream.at:  # an override of `at` sees every read
            return list(map(self.at, range(end)))
        cache, compute, cells = self._cache, self._compute, []
        for i in range(end):
            cell = cache.get(i)
            cells.append(cache.setdefault(i, compute(i)) if cell is None else cell)
        return cells

    def to_list(self) -> list[Element]:
        if self._length is None:
            raise ValueError("cannot list an infinite stream")
        return self.prefix(self._length)

    def __repr__(self):
        extent = "inf" if self._length is None else self._length
        return f"<NumStream length={extent}>"


def from_values(values: Iterable) -> NumStream:
    """Finite stream over concrete values (ints, Fractions, Undefined)."""
    cells = dict(enumerate(map(as_element, values)))
    s = NumStream(cells.__getitem__, length=len(cells))
    s._cache = cells  # every cell is known: the cache is the only copy
    return s


def from_function(fn: Callable[[int], object], length: int | None = None) -> NumStream:
    """Stream whose cell i is fn(i) (an int, string, Fraction or Undefined) as an Element."""
    return NumStream(lambda i: as_element(fn(i)), length)


def iota(start, step) -> NumStream:
    """Infinite arithmetic progression start, start+step, start+2*step, ..."""
    start = as_element(start)
    step = as_element(step)
    return NumStream(lambda i: start + step * i)


class _View(NumStream):
    """The first `length` cells of s, read through s's own cache.

    The view keeps no cells: a cached cell comes from s's cache, any other
    from s.at, which caches it there. A prefix comes from one s.prefix on
    the same cache, except where s overrides `at` or is itself a view:
    there each cell is read as by `at`, so s sees the calls it would.
    `highest` is the highest index read, exact for a single reader.
    """

    __slots__ = ("highest", "_source")

    def __init__(self, s: NumStream, length: int | None):
        super().__init__(s.at, length)
        self._cache, self._source = s._cache, s
        self.highest = -1

    def at(self, i: int) -> Element:
        if self._length is not None and i >= self._length:
            return Undefined(UndefinedReason.OUT_OF_RANGE)
        if i > self.highest:
            self.highest = i
        cell = self._cache.get(i)
        return self._compute(i) if cell is None else cell

    def prefix(self, n: int) -> list[Element]:
        end = n if self._length is None else min(n, self._length)
        if type(self._source).at is not NumStream.at:
            return list(map(self.at, range(end)))
        self.highest = max(self.highest, end - 1)
        return self._source.prefix(end)


def take(s: NumStream, n: int) -> NumStream:
    """Finite view of the first n cells (fewer if s is shorter), on s's cache."""
    if n < 0:
        raise ValueError(f"take count must be >= 0, got {n}")
    return _View(s, n if s.length is None else min(n, s.length))


def forward_difference(s: NumStream) -> NumStream:
    """Cell i is s[i+1] - s[i]; a finite length L becomes L - 1.

    Two `Fraction` cells are subtracted from their slots (`_slot_sum`);
    any other pair goes through `sub`.
    """
    length = None if s.length is None else max(s.length - 1, 0)

    def cell(i: int) -> Element:
        b, a = s.at(i + 1), s.at(i)
        try:  # an Undefined has no Fraction slots
            return _slot_sum(b._numerator, b._denominator, -a._numerator, a._denominator)
        except AttributeError:
            return sub(b, a)

    return NumStream(cell, length)


def partial_sums(s: NumStream) -> NumStream:
    """Running sums of s, same extent; undefined terms poison the rest.

    Cell i is s[0] + ... + s[i]. A read steps from a neighbour in the
    stream's own cache: cell 0 is s[0]; else cell i - 1 plus s[i]; else
    cell i + 1 less s[i+1], when that term is defined; else, if a sum
    from nothing met the first undefined term u and read past i >= u,
    the poisoned cell; else the sum of s[0..i] from nothing, in one
    `s.prefix` call. So walking down costs at most one term per cell.
    Values and forced terms are those of a sequential sum: every term up
    to i, each read once. The first undefined term poisons its own cell
    and every later one: cell 0 is then the term itself, any other cell
    propagated from it, keeping its cause.
    """
    lock = allocate_lock()  # concurrent readers force each term once
    poisoned, poison = range(0), None  # cells known poisoned, every term up to them forced

    def compute(i: int) -> Element:
        nonlocal poisoned, poison
        with lock:
            if i == 0:
                return s.at(0)
            if (below := cells.get(i - 1)) is not None:
                return add(below, s.at(i))
            if (above := cells.get(i + 1)) is not None and is_defined(term := s.at(i + 1)):
                return sub(above, term)
            if i not in poisoned:
                total = _exact_sum(terms := s.prefix(i + 1))
                if is_defined(total):
                    return total
                poisoned, poison = range(terms.index(total), i + 1), propagated(total)
            return poison

    sums = NumStream(compute, s.length)
    cells = sums._cache  # the cache, not the stream: no cycle keeps the sums alive
    return sums


_RUN_TERMS = 64  # most terms in a leaf
_RUN_DENOMINATOR = 1 << 32  # a leaf adds a term with no gcd only below this denominator


def _exact_sum(values: list[Element]) -> Element:
    """Exact sum of a nonempty list of Elements, reduced once at the root; or
    its first `Undefined`, summing nothing after it."""
    try:
        return Fraction(*_halves(values, 0, len(values)))
    except AttributeError:  # an Undefined has no Fraction slots
        if u := first_undefined(*values):
            return u
        raise TypeError("a stream cell is not an Element (Fraction or Undefined)") from None


def _halves(values: list[Element], lo: int, hi: int) -> tuple[int, int]:
    """Unreduced (p, q) with p/q = sum of values[lo:hi], hi > lo.

    Over 64 terms, the halves are summed in order and merge over the lcm
    of their denominators, q0 // g * q1 with g = gcd(q0, q1). A leaf
    folds its terms a/b, read from Fraction's slots, with no gcd as
    (p*b + a*q, q*b) while b < 2**32, else over the lcm. Ungated, terms
    such as 1/i! or 2**-i, whose denominators share almost every factor,
    build products many times the size of their lcm, and 1/i! over 1,500
    terms sums about 100 times slower. Not a closure: one that calls
    itself is a reference cycle.
    """
    if hi - lo > _RUN_TERMS:
        mid = (lo + hi) // 2
        p0, q0 = _halves(values, lo, mid)
        p1, q1 = _halves(values, mid, hi)
        g = gcd(q0, q1)
        r0 = q0 // g
        return p0 * (q1 // g) + p1 * r0, r0 * q1
    p, q = 0, 1
    for v in values[lo:hi]:
        a, b = v._numerator, v._denominator  # an Undefined raises AttributeError
        if b < _RUN_DENOMINATOR:
            p, q = p * b + a * q, q * b
        else:
            g = gcd(q, b)
            r = q // g
            p, q = p * (b // g) + a * r, r * b
    return p, q


def last_defined(s: NumStream) -> Element:
    """Last defined cell of a finite stream; OUT_OF_RANGE if there is none."""
    if s.length is None:
        raise ValueError("last_defined needs a finite stream")
    for i in reversed(range(s.length)):
        cell = s.at(i)
        if is_defined(cell):
            return cell
    return Undefined(UndefinedReason.OUT_OF_RANGE)
