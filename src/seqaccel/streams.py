"""Lazy, memoizing numeric streams and the combinators built on them.

A `NumStream` is a potentially infinite sequence of `Element` cells,
computed on demand and cached so that every cell is computed once.
Extent is explicit: `length is None` means infinite, otherwise the
stream is finite and reading past the end yields
`Undefined(OUT_OF_RANGE)` rather than raising. Indexing is 0-based
throughout; combinators that need the classic 1-based position n use
n = i + 1. Each pipeline stage is one stream that reads its input's
cells directly, with no shifted view of the input in between.

Streams are safe to read from several threads: the cell cache is
write-once (the first computed value for an index is the one every
reader sees), and stateful producers serialize their updates.
"""
from __future__ import annotations

import bisect
import threading
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import gcd

from .scalars import (
    Element,
    Undefined,
    UndefinedReason,
    as_element,
    first_undefined,
    is_defined,
    propagated,
    sub,
)


class NumStream:
    """On-demand sequence of Elements with a write-once cell cache."""

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
        """The first n cells as a list (shorter if the stream is)."""
        if self._length is not None:
            n = min(n, self._length)
        return [self.at(i) for i in range(n)]

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


def from_function(fn: Callable[[int], Element], length: int | None = None) -> NumStream:
    return NumStream(fn, length)


def iota(start, step) -> NumStream:
    """Infinite arithmetic progression start, start+step, start+2*step, ..."""
    start = as_element(start)
    step = as_element(step)
    return NumStream(lambda i: start + step * i)


class _View(NumStream):
    """The first `length` cells of s, read through s's own cache.

    The view keeps no cells: a cached cell comes from s's cache, any other
    from s.at, which caches it there. `highest` is the highest index read,
    exact for a single reader.
    """

    __slots__ = ("highest",)

    def __init__(self, s: NumStream, length: int | None):
        super().__init__(s.at, length)
        self._cache = s._cache
        self.highest = -1

    def at(self, i: int) -> Element:
        if self._length is not None and i >= self._length:
            return Undefined(UndefinedReason.OUT_OF_RANGE)
        if i > self.highest:
            self.highest = i
        cell = self._cache.get(i)
        return self._compute(i) if cell is None else cell


def take(s: NumStream, n: int) -> NumStream:
    """Finite view of the first n cells (fewer if s is shorter), on s's cache."""
    if n < 0:
        raise ValueError(f"take count must be >= 0, got {n}")
    return _View(s, n if s.length is None else min(n, s.length))


def _min_extent(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def zip_with(f: Callable[[Element, Element], Element], a: NumStream, b: NumStream) -> NumStream:
    """Cell i is f(a[i], b[i]); extent is the shorter of the two."""
    return NumStream(lambda i: f(a.at(i), b.at(i)), _min_extent(a.length, b.length))


def forward_difference(s: NumStream) -> NumStream:
    """Cell i is s[i+1] - s[i]; a finite length L becomes L - 1."""
    length = None if s.length is None else max(s.length - 1, 0)
    return NumStream(lambda i: sub(s.at(i + 1), s.at(i)), length)


def partial_sums(s: NumStream) -> NumStream:
    """Running sums of s, same extent; undefined terms poison the rest.

    Cell i is s[0] + ... + s[i]. Only the cells that were read are kept,
    in a sparse map, and each read starts from the nearest of them:
    cell a above i, when it is defined, less the sum of s[i+1..a], or
    else cell j below i (or nothing) plus the sum of s[j+1..i]. A gap is
    summed exactly by `_exact_sum`: consecutive terms with denominators
    below 2**32 fold into gcd-free integer runs of up to 16 terms, and a
    pairwise tree of integer pairs adds the runs and the larger terms.
    The gate keeps the unreduced run products small (see `_exact_sum`).
    The values are those of a sequential sum, and so are the forced
    terms: every term up to i, each read once through `s.at`. The first
    undefined term poisons its own cell and every later one: cell 0 is
    then the term itself, any other cell `propagated` from it.
    """
    known: dict[int, Element] = {}
    keys: list[int] = []  # the indices in `known`, ascending
    lock = threading.Lock()

    def compute(i: int) -> Element:
        with lock:
            if i in known:  # another reader of the same fresh cell got here first
                return known[i]
            at = bisect.bisect(keys, i)
            j = keys[at - 1] if at else -1
            a = keys[at] if at < len(keys) else None
            if a is not None and a - i < i - j and is_defined(known[a]):
                cell = known[a] - _exact_sum([s.at(m) for m in range(i + 1, a + 1)])
            else:
                terms = [s.at(m) for m in range(j + 1, i + 1)]
                u = first_undefined(known.get(j), *terms)
                if i == 0:
                    cell = terms[0]
                elif u:
                    cell = propagated(u)
                else:
                    # Cell j joins outside the tree: Fraction's addition of
                    # the smaller gap sum needs no gcd of two full-size ints.
                    cell = _exact_sum(terms) + known.get(j, 0)
            known[i] = cell
            keys.insert(at, i)
            return cell

    return NumStream(compute, s.length)


_RUN_TERMS = 16  # terms per gcd-free run
_RUN_DENOMINATOR = 1 << 32  # a term joins a run only below this denominator


def _exact_sum(values: list[Fraction]) -> Fraction:
    """Exact sum of a nonempty list: gcd-free runs, then a balanced tree.

    Consecutive terms a/b with b < 2**32 fold into runs of up to 16 terms
    as p/q -> (p*b + a*q) / (q*b), with no gcd; a term with a larger
    denominator is a node of its own. The gate bounds what skipping the
    gcd costs: a run's q is a product of at most 16 factors below 2**32.
    Ungated, terms such as 1/i! or 2**-i, whose denominators share almost
    every factor, build products about 16 times the size of their lcm,
    and summing 1/i! over 1,500 terms ran about 100 times slower.
    The tree then combines two nodes (p0, q0), (p1, q1) over the lcm of
    their denominators, q0 // g * q1 with g = gcd(q0, q1), so the
    operands of each product stay of similar size, and only the root is
    reduced into a Fraction.
    """
    if len(values) == 1:
        return values[0]
    pairs = []
    p, q, run = 0, 1, 0
    for v in values:
        a, b = v.as_integer_ratio()
        if b < _RUN_DENOMINATOR:
            p, q, run = p * b + a * q, q * b, run + 1
            if run == _RUN_TERMS:
                pairs.append((p, q))
                p, q, run = 0, 1, 0
        else:
            if run:
                pairs.append((p, q))
                p, q, run = 0, 1, 0
            pairs.append((a, b))
    if run:
        pairs.append((p, q))
    while len(pairs) > 1:
        merged = []
        for m in range(1, len(pairs), 2):
            (p0, q0), (p1, q1) = pairs[m - 1], pairs[m]
            g = gcd(q0, q1)
            r0 = q0 // g
            merged.append((p0 * (q1 // g) + p1 * r0, r0 * q1))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return Fraction(*pairs[0])


def last_defined(s: NumStream) -> Element:
    """Last defined cell of a finite stream; OUT_OF_RANGE if there is none."""
    if s.length is None:
        raise ValueError("last_defined needs a finite stream")
    for i in reversed(range(s.length)):
        cell = s.at(i)
        if is_defined(cell):
            return cell
    return Undefined(UndefinedReason.OUT_OF_RANGE)
