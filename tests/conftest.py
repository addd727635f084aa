from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from seqaccel import NumStream, Undefined, is_defined


def assert_stream_equals(stream: NumStream, expected: list) -> None:
    """Compare a finite stream against a list of Fractions/ints/None.

    None in `expected` means "undefined cell"; defined cells must match
    exactly.
    """
    assert stream.length == len(expected), f"extent {stream.length} != {len(expected)}"
    for i, want in enumerate(expected):
        got = stream.at(i)
        if want is None:
            assert isinstance(got, Undefined), f"cell {i}: expected undefined, got {got}"
        else:
            assert is_defined(got), f"cell {i}: expected {want}, got {got}"
            assert got == want, f"cell {i}: expected {want}, got {got}"


def stream_cells(stream: NumStream, n: int) -> list:
    """First n cells with Undefined collapsed to None (for oracle compare)."""
    return [None if isinstance(c, Undefined) else c for c in stream.prefix(n)]


def ealg_oracle(kind: str, k: int, values: list, convention: str, j=None, tally=None) -> list:
    """Cells of e_algorithm, or of g_algorithm for column j, by the list oracles.

    A cell is the recursion's (`oracles.ealg_list` or `galg_list`) where
    that is defined, and otherwise `oracles.ealg_ratio_list`'s, which is
    then defined only where an intermediate pivot vanishes in a fully
    defined window with no zero R. `tally` counts the cells each defines.
    """
    if j is None:
        cells = oracles.ealg_list(kind, k, values, convention)
    else:
        cells = oracles.galg_list(kind, k, j, values, convention)
    ratio = oracles.ealg_ratio_list(kind, k, values, convention, j) if k else cells
    out = [a if a is not None else b for a, b in zip(cells, ratio)]
    if tally is not None:
        tally.update("recursion" if a is not None else "ratio" for a, b in zip(cells, out)
                     if b is not None)
    return out


def random_fraction(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_stream_values(rng: random.Random, length: int, span: int = 9) -> list[Fraction]:
    return [random_fraction(rng, span) for _ in range(length)]


def nondegenerate_stream_values(rng: random.Random, length: int) -> list[Fraction]:
    """Random values with no zero first or second differences.

    The order-1 equivalences between the accelerator families are stated
    on this family: zero differences make the remainder models hit their
    short-circuit/division cases in routes that differ in definedness.
    """
    while True:
        values = random_stream_values(rng, length)
        d = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        d2 = [d[i + 1] - d[i] for i in range(len(d) - 1)]
        if all(x != 0 for x in d) and all(x != 0 for x in d2):
            return values


def _repunit(n: int) -> int:
    return (10 ** n - 1) // 9


# Literals past the interpreter's 4300-digit str->int limit, with their
# values built by arithmetic: integer, p/q and decimal forms, with chunk
# boundaries (4000 digits) hit and missed.
LONG_LITERALS = [
    ("1" * 5000, Fraction(_repunit(5000))),
    ("-" + "9" * 8001, Fraction(1 - 10 ** 8001)),
    ("1" * 4001 + "/" + "3" * 4500, Fraction(_repunit(4001), 3 * _repunit(4500))),
    ("-" + "1" * 4400 + "." + "2" * 4400,
     -(_repunit(4400) + Fraction(2 * _repunit(4400), 10 ** 4400))),
]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
