"""Seeded inputs of the four workloads.

A workload is one batch of cases, drawn once from the seed and repeated
for the whole run, so every run of a seed times the same calls and its
counts and digest do not depend on how many batches fit in the time.
The parameter that drives a workload's cost (n or the order k) runs over
a fixed grid that includes both ends of its range, with a small seeded
jitter inside; everything else (transform, model sequence, call order)
comes from the seed. That keeps the cost profile of a batch the same
from seed to seed, which is what makes medians and p90s repeatable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from refs import PI_QUARTER


@dataclass(frozen=True)
class Model:
    """s[i] = L + (-1)^i (a/(i+1) + b/(i+1)^2): rational, converges to L."""

    limit: Fraction
    a: Fraction
    b: Fraction

    def cell(self, i: int) -> Fraction:
        return self.limit + (-1) ** i * (self.a / (i + 1) + self.b / (i + 1) ** 2)

    @classmethod
    def draw(cls, rng: random.Random) -> "Model":
        # Seven-bit numerators and denominators keep the Fraction sizes,
        # and so the cost of a call, alike from seed to seed.
        def q():
            return Fraction(rng.randrange(64, 128), rng.randrange(64, 128))

        return cls(q(), q(), q())


@dataclass(frozen=True)
class Call:
    """One seqaccel invocation; `argv()` is its CLI form."""

    command: str  # growth-coeff | sum-series | accelerate | table
    method: str = "levin"
    kind: str = "u"
    order: int = 2
    conv: str = "text"
    terms: Optional[int] = None
    index: Optional[int] = None  # at-index:<index>; None is take-last
    digits: int = 10
    generator: Optional[str] = None
    path: Optional[str] = None  # --input file, relative to the checkout
    model: Optional[Model] = None  # in-process source when there is no generator

    def argv(self) -> list[str]:
        out = [self.command, "--method", self.method, "--kind", self.kind,
               "--order", str(self.order), "--digits", str(self.digits)]
        if self.method == "ealg":
            out += ["--g-convention", self.conv]
        if self.terms is not None:
            out += ["--terms", str(self.terms)]
        if self.index is not None:
            out += ["--mode", f"at-index:{self.index}"]
        out += ["--generator", self.generator] if self.generator else ["--input", self.path]
        return out


@dataclass(frozen=True)
class Case:
    name: str
    call: Call
    limit: Optional[Fraction] = None  # true limit, when known
    exact: bool = False  # the estimate must equal the limit exactly
    expect: Optional[str] = None  # pinned stdout, byte for byte
    expect_exit: int = 0
    cli: bool = False  # also run as a CLI subprocess in the timed loop


@dataclass
class Batch:
    cases: list[Case]
    files: dict[str, str] = field(default_factory=dict)  # path -> content


def _readme_cases(small: bool) -> list[Case]:
    """The README reference commands with their printed output."""
    four, half, quarter = Fraction(4), Fraction(1, 2), Fraction(1, 4)
    cases = [
        Case("readme-lambda-300",
             Call("growth-coeff", terms=300, digits=11, generator="plain-lambda"),
             expect="1.9634494140\nstable-digits: 8\n"),
        Case("readme-lambda-43",
             Call("growth-coeff", terms=43, digits=11, generator="plain-lambda"),
             expect="1.8925174359\nstable-digits: 3\n"),
        Case("readme-grandi",
             Call("sum-series", "ealg", "t", 2, terms=8, index=2, digits=6,
                  generator="grandi-terms"),
             limit=half, exact=True, expect="0.500000\nstable-digits: 6\n"),
        Case("readme-alt-naturals",
             Call("sum-series", "ealg", "u", 4, terms=12, digits=6, generator="alt-naturals"),
             limit=quarter, exact=True, expect="0.250000\nstable-digits: 6\n"),
        # "works under both weight conventions"
        Case("readme-alt-naturals-code",
             Call("sum-series", "ealg", "u", 4, "code", terms=12, digits=6,
                  generator="alt-naturals"),
             limit=quarter, exact=True, expect="0.250000\nstable-digits: 6\n"),
        Case("readme-leibniz-20",
             Call("sum-series", terms=20, generator="leibniz-pi4-terms"),
             limit=PI_QUARTER, expect="0.7853973978\nstable-digits: 5\n"),
        # Documented exit 2: order-2 Levin has no defined cell on 3 terms.
        Case("readme-undefined-exit2",
             Call("sum-series", terms=3, generator="grandi-terms"),
             expect="undefined(out-of-range)\nstable-digits: 0\n", expect_exit=2),
    ]
    if not small:
        cases += [
            Case("readme-catalan-headline",
                 Call("growth-coeff", terms=800, generator="catalan"),
                 limit=four, expect="4.000000024\nstable-digits: 10\n"),
        ] + [
            Case(f"readme-catalan-ealg-{kind}",
                 Call("growth-coeff", "ealg", kind, 2, "code", terms=800, digits=11,
                      generator="catalan"),
                 limit=four, expect=f"{value}\nstable-digits: {stable}\n")
            for kind, value, stable in (("t", "3.9849561089", 4), ("u", "3.9773868157", 5),
                                        ("v", "3.9773869347", 5))
        ]
    return cases


GROWTH_SPECS = [("levin", k, o, "text") for k in "tuv" for o in (0, 1, 2)] + [
    ("ealg", k, 2, c) for k in "tuv" for c in ("text", "code")
]


def _grid(lo: int, hi: int, points: int, jitter: int, rng: random.Random) -> list[int]:
    """Evenly spaced sizes from lo to hi; interior points get +-jitter."""
    step = (hi - lo) / (points - 1)
    return [round(lo + j * step) + (rng.randint(-jitter, jitter) if 0 < j < points - 1 else 0)
            for j in range(points)]


def growth_catalan(rng: random.Random, small: bool, prefix: str) -> Batch:
    """Catalan over the n grid, plain-lambda at both ends, and the README cases.

    The smallest Catalan size always runs the least accurate transform
    (E-algorithm v, code convention) and the largest the README's Levin
    u 2, so `digits_correct.min` does not depend on the seed.
    """
    cases = []
    cat = _grid(40, 120, 9, 3, rng) if small else _grid(400, 1200, 9, 8, rng)
    lam = [20, 80] if small else [43, 600]
    for gen, sizes, limit in (("catalan", cat, Fraction(4)), ("plain-lambda", lam, None)):
        for j, n in enumerate(sizes):
            method, kind, order, conv = rng.choice(GROWTH_SPECS)
            if gen == "catalan" and j in (0, len(sizes) - 1):
                method, kind, order, conv = ("ealg", "v", 2, "code") if j == 0 else (
                    "levin", "u", 2, "text")
            cases.append(Case(f"{gen}-{method}-{kind}{order}-{conv}-n{n}",
                              Call("growth-coeff", method, kind, order, conv, terms=n,
                                   generator=gen),
                              limit=limit))
    readme = [c for c in _readme_cases(small) if c.call.command == "growth-coeff"]
    cli = {"readme-catalan-headline", "readme-catalan-ealg-t", "readme-lambda-300"}
    cases += [replace(c, cli=c.name in cli or small) for c in readme]
    rng.shuffle(cases)
    return Batch(cases)


def ealg_orders(rng: random.Random, small: bool, prefix: str) -> Batch:
    """One cell per order k, alternating the Leibniz series and a model sequence.

    Kind, convention and mode follow a fixed rotation over the k grid, so
    the costly high-order cells are the same transforms for every seed.
    Model cells read at index 0 use the text convention (the code
    convention is only a few digits good there), so the least accurate
    cell, which sets `digits_correct.min`, is a Leibniz one and does not
    depend on the seed.
    """
    cases, files = [], {}
    orders = list(range(3, 8)) if small else list(range(8, 41, 4))
    for j, k in enumerate(orders):
        cli = j < 3 or small
        take_last = j % 4 in (1, 2)
        terms, index, mode = (k + 10, None, "last") if take_last else (None, 0, "at0")
        kind = "tuv"[j % 3]
        if j % 2 == 0:
            conv = "code" if j % 4 == 0 else "text"
            call = Call("sum-series", "ealg", kind, k, conv, terms, index,
                        generator="leibniz-pi4-terms")
            cases.append(Case(f"leibniz-{kind}-{conv}-k{k}-{mode}", call,
                              limit=PI_QUARTER, cli=cli))
            continue
        conv = "code" if take_last else "text"
        model = Model.draw(rng)
        name = f"model-{kind}-{conv}-k{k}-{mode}"
        # The CLI reads the model from a file of its first k+10 rows.
        path = f"{prefix}/{name}.txt"
        files[path] = "".join(f"{model.cell(i)}\n" for i in range(k + 10))
        call = Call("accelerate", "ealg", kind, k, conv, k + 10, index, path=path,
                    model=model)
        cases.append(Case(name, call, limit=model.limit, cli=cli))
    rng.shuffle(cases)
    return Batch(cases, files)


def sum_leibniz(rng: random.Random, small: bool, prefix: str) -> Batch:
    """Levin t/u/v orders 1-2 at every n of the grid.

    At the seed state every n from about 4931 up fails in rendering (the
    4300-digit int->str limit); the grid keeps that share fixed at 2 of
    8 sizes, and the jitter (+-16) never moves a size across it.
    """
    sizes = _grid(40, 320, 8, 4, rng) if small else _grid(800, 6400, 8, 16, rng)
    cases = []
    for n in sizes:
        for kind in "tuv":
            for order in (1, 2):
                cli = small or (kind, order) == ("u", 2)
                cases.append(Case(f"leibniz-{kind}{order}-n{n}",
                                  Call("sum-series", "levin", kind, order, terms=n,
                                       generator="leibniz-pi4-terms"),
                                  limit=PI_QUARTER, cli=cli))
    cases += [replace(c, cli=True) for c in _readme_cases(small) if c.name == "readme-leibniz-20"]
    rng.shuffle(cases)
    return Batch(cases)


def table_files(rng: random.Random, rows: int, prefix: str) -> tuple[list[Case], dict[str, str]]:
    """Two seeded sequence files and the `table` commands that read them."""
    model = Model.draw(rng)
    frac_path, dec_path = f"{prefix}/table-model.txt", f"{prefix}/table-decimal.txt"
    frac = ["# seeded model sequence, one rational per line\n", "\n"]
    frac += [f"{model.cell(i)}\n" for i in range(rows)]
    limit = Fraction(rng.randrange(1, 1000), 1000)
    dec = [f"{float(limit + Fraction((-1) ** i, i + 1)):.6f}  # row {i}\n" for i in range(rows)]
    cases = [
        Case("table-levin-u2", Call("table", terms=rows, path=frac_path), cli=True),
        Case("table-ealg-t3", Call("table", "ealg", "t", 3, "code", terms=rows, digits=8,
                                   path=dec_path), cli=True),
    ]
    return cases, {frac_path: "".join(frac), dec_path: "".join(dec)}


def cli_readme(rng: random.Random, small: bool, prefix: str) -> Batch:
    tables, files = table_files(rng, 40 if small else 300, prefix)
    cases = [replace(c, cli=True) for c in _readme_cases(small)] + tables
    rng.shuffle(cases)
    return Batch(cases, files)


BATCH_MAKERS = {
    "growth-catalan": growth_catalan,
    "ealg-orders": ealg_orders,
    "sum-leibniz": sum_leibniz,
    "cli-readme": cli_readme,
}
WORKLOADS = tuple(BATCH_MAKERS)


def make_batch(workload: str, seed: int, small: bool, prefix: str) -> Batch:
    """The seeded batch; its input files go under `prefix` (checkout-relative)."""
    return BATCH_MAKERS[workload](random.Random(f"{workload}:{seed}"), small, prefix)


def write_files(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
