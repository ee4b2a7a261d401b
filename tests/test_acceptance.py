"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Expected table cells are transcribed from the reference tables.  Two cells
are corrected where the rows as printed are internally inconsistent: row
k=3 of the n=6 table needs the extra term 2(2^3) (the truncated sum u(6,3)
has dimension 225 - 71 = 154, and the row's own closed form produces the
term), and row k=5 of the n=7 table reads (2^2,1), which is not a
partition of 7 and must be (2^3,1) (the unique cell completing dimension
720).  Both corrections are confirmed independently by the tableau
major-index oracle.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

from conftest import point_specialize
from plethy.lie_family import ell, lie2, whitehouse_deficit
from plethy.partitions import partitions_of
from plethy.registry import registry_ids, verify_all, verify_identity
from plethy.schur import is_schur_positive, to_schur
from plethy.series import SeriesContext
from plethy.symfunc import SymFunc, p, plethysm
from plethy.tables import table_data
from series_oracle import delta_part, hodge_part
from tableau_oracle import major_index, standard_tableaux

ACCEPTANCE_LINES: list[str] = []


def _record(num: int, ok: bool, message: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {message}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- expected cells ---------------------------------------------------------------

TABLE1 = {
    4: {
        "pbw": {(4,): 1},
        "ext": {(1, 1, 1, 1): 1},
        "whitney": {(1, 1, 1, 1): 1},
    },
    3: {
        "pbw": {(3, 1): 1, (2, 1, 1): 1},
        "ext": {(3, 1): 1, (2, 1, 1): 1},
        "whitney": {(4,): 1, (3, 1): 1, (2, 2): 1},
    },
    2: {
        "pbw": {(3, 1): 1, (2, 2): 2, (2, 1, 1): 1, (1, 1, 1, 1): 1},
        "ext": {(3, 1): 2, (2, 2): 1, (2, 1, 1): 1},
        "whitney": {(3, 1): 1, (2, 1, 1): 2, (2, 2): 1},
    },
    1: {
        "pbw": {(3, 1): 1, (2, 1, 1): 1},
        "ext": {(4,): 1, (2, 2): 1, (2, 1, 1): 1},
        "whitney": {(3, 1): 1, (2, 1, 1): 1},
    },
}

TABLE2 = {
    5: {
        "pbw": {(5,): 1},
        "ext": {(1, 1, 1, 1, 1): 1},
        "whitney": {(1, 1, 1, 1, 1): 1},
    },
    4: {
        "pbw": {(4, 1): 1, (3, 1, 1): 1},
        "ext": {(3, 1, 1): 1, (2, 1, 1, 1): 1},
        "whitney": {(5,): 1, (4, 1): 1, (3, 2): 1},
    },
    3: {
        "pbw": {
            (4, 1): 1,
            (3, 2): 2,
            (3, 1, 1): 1,
            (2, 2, 1): 2,
            (2, 1, 1, 1): 1,
            (1, 1, 1, 1, 1): 1,
        },
        "ext": {(4, 1): 1, (3, 2): 2, (3, 1, 1): 2, (2, 2, 1): 1, (2, 1, 1, 1): 1},
        "whitney": {(3, 2): 1, (3, 1, 1): 2, (2, 2, 1): 2, (2, 1, 1, 1): 2},
    },
    2: {
        "pbw": {(4, 1): 1, (3, 2): 2, (3, 1, 1): 3, (2, 2, 1): 2, (2, 1, 1, 1): 2},
        "ext": {
            (5,): 1,
            (4, 1): 2,
            (3, 2): 2,
            (3, 1, 1): 2,
            (2, 2, 1): 3,
            (2, 1, 1, 1): 1,
        },
        "whitney": {(4, 1): 2, (3, 2): 2, (3, 1, 1): 3, (2, 2, 1): 2, (2, 1, 1, 1): 1},
    },
    1: {
        "pbw": {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1},
        "ext": {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1},
        "whitney": {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1},
    },
}

TABLE3 = {
    0: {(6,): 1},
    1: {(5, 1): 1, (4, 2): 1},
    2: {(6,): 1, (5, 1): 1, (4, 2): 2, (4, 1, 1): 1, (3, 2, 1): 2, (2, 2, 2): 1},
    3: {
        (6,): 1,
        (5, 1): 1,
        (4, 2): 3,
        (4, 1, 1): 2,
        (3, 3): 1,
        (3, 2, 1): 3,
        (3, 1, 1, 1): 2,
        (2, 2, 2): 2,  # corrected: forced by dimension count 154 and the closed form
        (2, 2, 1, 1): 2,
    },
    4: {
        (5, 1): 1,
        (4, 2): 2,
        (4, 1, 1): 1,
        (3, 2, 1): 3,
        (3, 1, 1, 1): 2,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
        (2, 1, 1, 1, 1): 1,
    },
}

TABLE4 = {
    0: {(7,): 1},
    1: {(6, 1): 1, (5, 2): 1},
    2: {
        (7,): 1,
        (6, 1): 1,
        (5, 2): 2,
        (5, 1, 1): 1,
        (4, 3): 1,
        (4, 2, 1): 2,
        (3, 2, 2): 1,
    },
    3: {
        (7,): 1,
        (6, 1): 2,
        (5, 2): 3,
        (5, 1, 1): 2,
        (4, 3): 3,
        (4, 2, 1): 5,
        (4, 1, 1, 1): 2,
        (3, 3, 1): 2,
        (3, 2, 2): 3,
        (3, 2, 1, 1): 3,
        (2, 2, 2, 1): 2,
    },
    4: {
        (6, 1): 2,
        (5, 2): 4,
        (5, 1, 1): 3,
        (4, 3): 3,
        (4, 2, 1): 8,
        (4, 1, 1, 1): 3,
        (3, 3, 1): 4,
        (3, 2, 2): 5,
        (3, 2, 1, 1): 7,
        (3, 1, 1, 1, 1): 3,
        (2, 2, 2, 1): 3,
        (2, 2, 1, 1, 1): 2,
    },
    5: {
        (6, 1): 1,
        (5, 2): 2,
        (5, 1, 1): 2,
        (4, 3): 2,
        (4, 2, 1): 5,
        (4, 1, 1, 1): 3,
        (3, 3, 1): 3,
        (3, 2, 2): 3,
        (3, 2, 1, 1): 5,
        (3, 1, 1, 1, 1): 2,
        (2, 2, 2, 1): 2,  # corrected from the misprinted (2^2,1), not a partition of 7
        (2, 2, 1, 1, 1): 2,
        (2, 1, 1, 1, 1, 1): 1,
    },
}


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    for which, expected in ((1, TABLE1), (2, TABLE2)):
        data = table_data(which)
        for row in data["rows"]:
            want = expected[row["length"]]
            assert dict(row["pbw"].terms) == want["pbw"], (which, row["length"], "pbw")
            assert dict(row["ext"].terms) == want["ext"], (which, row["length"], "ext")
            assert dict(row["whitney"].terms) == want["whitney"], (
                which,
                row["length"],
                "whitney",
            )
    for which, expected in ((3, TABLE3), (4, TABLE4)):
        data = table_data(which)
        assert len(data["rows"]) == len(expected)
        for row in data["rows"]:
            assert dict(row["u"].terms) == expected[row["k"]], (which, row["k"])
    elapsed = time.perf_counter() - t0
    _record(1, elapsed < 10.0, f"tables 1-4 cell-exact in {elapsed:.2f}s (< 10 s)")


def test_criterion_2_registry_cap_10():
    t0 = time.perf_counter()
    reports = verify_all(10, ids=registry_ids("theorem"))
    elapsed = time.perf_counter() - t0
    failed = [r.id for r in reports if r.failed]
    skipped = [r.id for r in reports if r.status == "skip"]
    ok = not failed and not skipped and elapsed < 300.0
    _record(
        2,
        ok,
        f"{len(reports)} theorem-tier identities at cap 10 in {elapsed:.1f}s"
        + (f"; FAILED {failed}" if failed else "")
        + (f"; SKIPPED {skipped}" if skipped else ""),
    )


def test_criterion_3_tableau_cross_validation():
    t0 = time.perf_counter()
    for n in range(1, 9):
        maj_counts = {}
        for lam in partitions_of(n):
            counts = [0] * n
            for tab in standard_tableaux(lam):
                counts[major_index(tab) % n] += 1
            maj_counts[lam] = counts
        for r in range(1, n + 1):
            exp = dict(to_schur(ell(n, r)).terms)
            for lam in partitions_of(n):
                assert exp.get(lam, 0) == maj_counts[lam][r % n], (n, r, lam)
    elapsed = time.perf_counter() - t0
    _record(3, elapsed < 60.0, f"tableau counts == Schur coefficients, n <= 8, in {elapsed:.1f}s")


def test_criterion_4_specialization():
    t0 = time.perf_counter()
    for n in range(1, 65):
        at_one = point_specialize(lie2(n), 1)
        expected = 1 if n & (n - 1) == 0 else 0
        assert at_one == expected, n
        at_minus = point_specialize(lie2(n), -1)
        assert at_minus == (-1 if n == 1 else 0), n
    elapsed = time.perf_counter() - t0
    _record(4, elapsed < 5.0, f"two-point specializations exact for n <= 64 in {elapsed:.2f}s")


def test_criterion_5_conjecture_scans():
    t0 = time.perf_counter()
    not_positive = set()
    for n in range(2, 17):
        if not is_schur_positive(whitehouse_deficit(n, "lie2")).positive:
            not_positive.add(n)
    assert not_positive == {4, 8, 16}, not_positive
    upos = verify_identity("U-POS", 12)
    assert upos.passed
    elapsed = time.perf_counter() - t0
    _record(
        5,
        elapsed < 1800.0,
        f"whitehouse scan to 16 hits exactly {{4, 8, 16}}; u(n,k) positive to n = 12; "
        f"measured {elapsed:.1f}s (budget 1800 s)",
    )


def test_criterion_6_dimension_ledgers():
    stirling = {4: {4: 1, 3: 6, 2: 11, 1: 6}, 5: {5: 1, 4: 10, 3: 35, 2: 50, 1: 24}}
    for which, n in ((1, 4), (2, 5)):
        data = table_data(which)
        for column in ("pbw", "ext", "whitney"):
            total = 0
            for row in data["rows"]:
                exp = row[column]
                dim = exp.dimension()  # hook-length route
                assert dim == stirling[n][row["length"]], (which, column, row["length"])
                total += dim
            assert total == factorial(n), (which, column)
    # in tables 3 and 4 the hook-length route and the p-basis route agree
    for which, n in ((3, 6), (4, 7)):
        ctx_n = SeriesContext(n)
        for row in table_data(which)["rows"]:
            assert row["u"].dimension() == ctx_n.u(n, row["k"]).dimension()
    ctx = SeriesContext(12)
    dims = {1: 0}
    for n in range(2, 13):
        dims[n] = ctx.delta(n).dimension()
        assert dims[n] == n * dims[n - 1] + (-1) ** n, n
    _record(6, True, "graded dimensions match the Poincare data; derangement recurrence to n = 12")


def test_criterion_7_property_gates():
    rng = random.Random(4641)
    pool = [lam for n in range(1, 5) for lam in partitions_of(n)]

    def rand_symfunc():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(pool)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return SymFunc(terms)

    checked = 0
    for _ in range(20):
        f, g, k = rand_symfunc(), rand_symfunc(), rand_symfunc()
        if not k:
            continue
        assert plethysm(f, plethysm(g, k, 8), 8) == plethysm(plethysm(f, g, 8), k, 8)
        checked += 1
    for _ in range(20):
        g = rand_symfunc()
        if not g:
            continue
        for n in range(1, 7):
            f = p(partitions_of(n)[rng.randrange(len(partitions_of(n)))])
            lhs = plethysm(f, -g, cap=6)
            rhs = plethysm(f.omega(), g, cap=6).scale((-1) ** (n % 2))
            assert lhs == rhs
            checked += 1
    _record(
        7,
        checked > 50,
        f"plethysm associativity and sign-rule gates green ({checked} seeded cases; "
        "full property suites in the module tests)",
    )


def test_criterion_8_distinctness_findings():
    ctx = SeriesContext(5)
    for k in (1, 2):
        assert delta_part(ctx, 4, k) != hodge_part(ctx, 4, k).omega(), k
    for n in (4, 5):
        happ = ctx.get(("H", "lie"))
        eapp = ctx.get(("E", "lie2"))
        decs = {
            "pbw": [happ.graded(n, ell) for ell in range(1, n + 1)],
            "eulerian": [happ.graded(n, ell).omega() for ell in range(1, n + 1)],
            "ext": [eapp.graded(n, ell) for ell in range(1, n + 1)],
            "ext-omega": [eapp.graded(n, ell).omega() for ell in range(1, n + 1)],
        }
        names = list(decs)
        # every decomposition rebuilds the regular representation
        for name in names:
            total = SymFunc.zero()
            for piece in decs[name]:
                total = total + piece
            assert total == p((1,) * n), (n, name)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert decs[names[i]] != decs[names[j]], (n, names[i], names[j])
    _record(8, True, "split refinements differ piecewise; four decompositions pairwise distinct")
