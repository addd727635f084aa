"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Tolerances are pinned here, not configured elsewhere. "Agrees in the
first k significant digits" means both values render identically at k
significant digits (ties-to-even), which our measured margins clear by
several extra digits.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from seqaccel import (
    GConvention,
    Kind,
    Method,
    TransformSpec,
    aitken,
    alternating_naturals_terms,
    catalan_stream,
    e_algorithm,
    from_function,
    from_values,
    g_algorithm,
    grandi_terms,
    growth_coefficient,
    is_defined,
    leibniz_pi4_terms,
    levin,
    partial_sums,
    plain_lambda_terms_stream,
    render_decimal,
    sum_series,
    take,
)

import oracles
from conftest import ealg_oracle, nondegenerate_stream_values, random_stream_values, stream_cells

F = Fraction
KINDS = [Kind.T, Kind.U, Kind.V]
CONVENTIONS = [GConvention.TEXT, GConvention.CODE]

LEVIN_U2 = TransformSpec(Method.LEVIN, Kind.U, 2)

# pi/4, frozen from two independent sources (Machin-style rational oracle
# and an arbitrary-precision library); the oracle reasserts it at runtime.
PI_QUARTER_50 = "0.78539816339744830961566084581987572104929234984378"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def digits_agree(value, reference: str, k: int) -> bool:
    return render_decimal(value, k) == render_decimal(F(reference), k)


@pytest.fixture(scope="module")
def catalan_source():
    return catalan_stream()


@pytest.fixture(scope="module")
def lambda_source():
    return plain_lambda_terms_stream()


def test_criterion_1_catalan_headline(catalan_source):
    rep = growth_coefficient(LEVIN_U2, catalan_source, 800, digits=11)
    ok = (
        is_defined(rep.estimate)
        and digits_agree(rep.estimate, "4.0000000237", 8)
        and abs(rep.estimate - 4) <= F(5, 10 ** 8)
    )
    report(1, ok, f"levin u 2 on catalan ratios at 800 terms -> {rep.rendered}")
    assert ok


def test_criterion_2_e_algorithm_triple(catalan_source):
    printed = {Kind.T: "3.9849561088", Kind.U: "3.9773868157", Kind.V: "3.9773869346"}
    winners = {}
    for kind, reference in printed.items():
        for conv in CONVENTIONS:
            spec = TransformSpec(Method.EALG, kind, 2, conv)
            rep = growth_coefficient(spec, catalan_source, 800, digits=11)
            if is_defined(rep.estimate) and digits_agree(rep.estimate, reference, 6):
                winners.setdefault(kind, (conv, rep.rendered))
    ok = set(winners) == set(printed)
    detail = ", ".join(
        f"kind {k.value}: {winners[k][1]} via {winners[k][0].value}" for k in winners
    )
    report(2, ok, detail or "no convention reproduced the recorded values")
    assert ok
    # Recorded in README: the n^(j-1)/R convention is the reproducing one.
    assert all(conv is GConvention.CODE for conv, _ in winners.values())


def test_criterion_3_plain_lambda_growth(lambda_source):
    rep = growth_coefficient(LEVIN_U2, lambda_source, 300, digits=11)
    ok = is_defined(rep.estimate) and digits_agree(rep.estimate, "1.963447954", 6)
    stretch = is_defined(rep.estimate) and digits_agree(
        rep.estimate, "1.9634489522735283", 10
    )
    report(
        3,
        ok,
        f"levin u 2 on lambda-term ratios at 300 terms -> {rep.rendered}"
        f" (10-digit stretch goal {'met' if stretch else 'not met; see notes'})",
    )
    assert ok


def test_criterion_4_plain_lambda_at_43(lambda_source):
    rep = growth_coefficient(LEVIN_U2, lambda_source, 43, digits=11)
    ok = is_defined(rep.estimate) and digits_agree(rep.estimate, "1.8925174623", 6)
    report(4, ok, f"same pipeline at 43 terms -> {rep.rendered}")
    assert ok


def test_criterion_5_divergent_series():
    # Grandi: second-order elimination, t model, default weight convention.
    spec = TransformSpec(Method.EALG, Kind.T, 2, GConvention.TEXT)
    transformed = spec.apply(partial_sums(grandi_terms()))
    first_defined = next(
        transformed.at(i) for i in range(10) if is_defined(transformed.at(i))
    )
    grandi_ok = first_defined == F(1, 2)

    # Alternating naturals: fourth-order elimination, u model. The working
    # combination (recorded in README): text convention, take-last, 12 terms
    # (any n from 7 to 12 works; the value is exactly 1/4).
    rep = sum_series(
        TransformSpec(Method.EALG, Kind.U, 4, GConvention.TEXT),
        alternating_naturals_terms(),
        12,
    )
    alt_ok = (
        is_defined(rep.estimate)
        and abs(rep.estimate - F(1, 4)) < F(1, 10 ** 6)
        and rep.estimate == F(1, 4)
        and rep.terms_used <= 12
    )
    ok = grandi_ok and alt_ok
    report(
        5,
        ok,
        f"grandi first defined cell = {first_defined} (exact); "
        f"alternating naturals at 12 terms = {rep.rendered} (exactly 1/4, "
        "text convention, take-last)",
    )
    assert ok


def test_criterion_6_identity_suite():
    rng = random.Random(600)
    checked = 0
    for _ in range(1000):
        values = random_stream_values(rng, rng.randint(3, 8))
        s = from_values(values)
        for kind in KINDS:
            assert stream_cells(levin(kind, 0, s), len(values)) == values
            assert stream_cells(e_algorithm(kind, 0, s), len(values)) == values
        lv = levin(Kind.T, 1, s)
        ak = aitken(s)
        n = max(len(values) - 2, 0)
        assert stream_cells(lv, n) == stream_cells(ak, n)
        checked += 1
    # Cross-family order-1 identity, on streams with no zero first or
    # second differences (outside that family the routes can differ in
    # definedness at degenerate cells).
    for _ in range(1000):
        values = nondegenerate_stream_values(rng, rng.randint(4, 8))
        s = from_values(values)
        for kind in KINDS:
            lv = levin(kind, 1, s)
            ea = e_algorithm(kind, 1, s, GConvention.TEXT)
            n = min(lv.length, ea.length)
            assert stream_cells(lv, n) == stream_cells(ea, n)
    report(6, True, f"{checked} random streams x order-0 identities, "
                    "levin(t,1)=aitken, e-alg order 1 = levin order 1")


def test_criterion_7_exactness_on_model():
    rng = random.Random(700)
    for _ in range(200):
        limit = F(rng.randint(-9, 9), rng.randint(1, 9))
        scale = F(0)
        while scale == 0:
            scale = F(rng.randint(-9, 9), rng.randint(1, 9))
        ratio = F(1)
        while ratio in (0, 1):
            ratio = F(rng.randint(-9, 9), rng.randint(1, 9))
        s = from_function(lambda i: limit + scale * ratio ** i)
        out = aitken(s)
        cells = [out.at(i) for i in range(6)]
        assert all(is_defined(c) for c in cells)
        assert all(c == limit for c in cells)

    # Translation invariance and scaling equivariance, exact.
    for _ in range(200):
        values = random_stream_values(rng, 8)
        shift = F(rng.randint(-9, 9), rng.randint(1, 9))
        base = levin(Kind.T, 1, from_values(values))
        moved = levin(Kind.T, 1, from_values([v + shift for v in values]))
        for i in range(base.length):
            a, b = base.at(i), moved.at(i)
            if is_defined(a) and is_defined(b):
                assert a + shift == b
            else:
                assert not is_defined(a) and not is_defined(b)
        factor = F(0)
        while factor == 0:
            factor = F(rng.randint(-9, 9), rng.randint(1, 9))
        for kind in (Kind.T, Kind.U):
            for order in (1, 2):
                base = levin(kind, order, from_values(values))
                scaled = levin(kind, order, from_values([v * factor for v in values]))
                for i in range(base.length):
                    a, b = base.at(i), scaled.at(i)
                    if is_defined(a) and is_defined(b):
                        assert a * factor == b
                    else:
                        assert not is_defined(a) and not is_defined(b)
    report(7, True, "200 geometric models exact; translation/scaling exact on 200 streams")


def test_criterion_8_brute_force_oracle_equivalence():
    # A cell equals the memoization-free recursion where that is defined,
    # and the determinant ratio where only an intermediate pivot vanishes.
    rng = random.Random(800)
    combos, tally = 0, Counter()
    for length in range(1, 9):
        for _ in range(15):
            values = random_stream_values(rng, length, span=6)
            s = from_values(values)
            for kind in KINDS:
                for conv in CONVENTIONS:
                    for k in range(0, 4):
                        want = ealg_oracle(kind.value, k, values, conv.value, tally=tally)
                        got = e_algorithm(kind, k, s, conv)
                        assert (got.length or 0) == len(want)
                        assert stream_cells(got, len(want)) == want
                        for j in (1, 2, 3):
                            want_g = ealg_oracle(kind.value, k, values, conv.value, j, tally)
                            got_g = g_algorithm(kind, k, j, s, conv)
                            assert (got_g.length or 0) == len(want_g)
                            assert stream_cells(got_g, len(want_g)) == want_g
                        combos += 1
    assert tally["recursion"] > 0 and tally["ratio"] > 0, tally
    report(8, True, f"{combos} stream/kind/convention/order combinations match the "
                    f"memoization-free recursion exactly ({tally['recursion']} cells), and "
                    f"the determinant ratio where only a pivot vanishes ({tally['ratio']})")


def test_criterion_9_convergence_improvement():
    reference = oracles.pi_quarter_reference()
    assert render_decimal(reference, 50) == PI_QUARTER_50
    rep = sum_series(LEVIN_U2, leibniz_pi4_terms(), 20)
    raw = partial_sums(take(leibniz_pi4_terms(), 20)).at(19)
    accel_err = abs(rep.estimate - reference)
    raw_err = abs(raw - reference)
    ok = is_defined(rep.estimate) and accel_err < raw_err
    report(
        9,
        ok,
        f"accelerated error {render_decimal(accel_err, 3)} < raw error "
        f"{render_decimal(raw_err, 3)} on 20 alternating terms",
    )
    assert ok
