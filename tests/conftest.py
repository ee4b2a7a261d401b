"""Shared fixtures, strategies and brute-force oracles.

The oracles here deliberately avoid the library's own code paths: symmetric
functions are evaluated at concrete rational points, tableaux are counted
by exhaustion, permutations are enumerated directly.  Expected values in
the tests either come from these oracles or from the reference tables.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from plethy.partitions import partitions_of, z_of
from plethy.symfunc import SymFunc, _exact

# property checks here verify theorems, so replay adds nothing; keep runs
# reproducible instead
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    options = partitions_of(n)
    return options[draw(st.integers(min_value=0, max_value=len(options) - 1))]


@st.composite
def symfunc_strategy(draw, max_deg=6, max_terms=4, homogeneous=False, min_deg=0):
    terms = {}
    if homogeneous:
        n = draw(st.integers(min_value=min_deg, max_value=max_deg))
        pool = partitions_of(n)
    else:
        pool = [lam for n in range(min_deg, max_deg + 1) for lam in partitions_of(n)]
    count = draw(st.integers(min_value=0, max_value=max_terms))
    for _ in range(count):
        lam = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        num = draw(st.integers(min_value=-6, max_value=6))
        den = draw(st.integers(min_value=1, max_value=4))
        terms[lam] = terms.get(lam, Fraction(0)) + Fraction(num, den)
    return SymFunc(terms)


# -- Fraction-per-term reference ring --------------------------------------------
#
# The p-basis arithmetic written the plain way, one Fraction per term, on
# dicts {partition: Fraction}.  SymFunc keeps integer numerators over a
# common denominator; every ring operation is checked against these.


def ref_terms(f: SymFunc) -> dict[tuple, Fraction]:
    return dict(f.items())


def _ref_put(data: dict, lam: tuple, c: Fraction) -> None:
    new = data.get(lam, Fraction(0)) + c
    if new:
        data[lam] = new
    else:
        data.pop(lam, None)


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for lam, c in b.items():
        _ref_put(out, lam, sign * c)
    return out


def ref_mul(a: dict, b: dict, cap: int | None = None) -> dict:
    out: dict = {}
    for lam, x in a.items():
        for mu, y in b.items():
            if cap is None or sum(lam) + sum(mu) <= cap:
                _ref_put(out, tuple(sorted(lam + mu, reverse=True)), x * y)
    return out


def ref_plethysm(f: dict, g: dict, cap: int | None = None) -> dict:
    out: dict = {}
    for lam, c in f.items():
        if cap is not None and sum(lam) > cap:
            continue
        term = {(): Fraction(1)}
        for part in lam:
            gk = {tuple(part * m for m in mu): v for mu, v in g.items()}
            term = ref_mul(term, gk, cap)
        for mu, v in term.items():
            _ref_put(out, mu, c * v)
    return out


def ref_scale(a: dict, c: Fraction) -> dict:
    return {lam: c * v for lam, v in a.items()} if c else {}


def ref_omega(a: dict) -> dict:
    return {lam: v if (sum(lam) - len(lam)) % 2 == 0 else -v for lam, v in a.items()}


def ref_partial_p1(a: dict) -> dict:
    out: dict = {}
    for lam, v in a.items():
        m1 = lam.count(1)
        if m1:
            _ref_put(out, lam[:-1], m1 * v)
    return out


def ref_to_schur(f: SymFunc):
    """to_schur one function at a time: sum the columns of f's support into
    mask-keyed totals, then divide in descending partition order."""
    from plethy import _mn_pure
    from plethy.schur import NotVirtualCharacter, SchurExpansion

    nums, den = f._num, f._den
    acc: dict[int, int] = {}
    for mu, c in nums.items():
        for mask, chi in _mn_pure.keyed_column(mu).items():
            acc[mask] = acc.get(mask, 0) + c * chi
    out = []
    for lam, total in sorted(
        ((_mn_pure.decode(mask), total) for mask, total in acc.items() if total), reverse=True
    ):
        q, r = divmod(total, den)
        if r:
            raise NotVirtualCharacter(lam, Fraction(total, den))
        out.append((lam, q))
    return SchurExpansion(f.degree(), tuple(out))


def ref_positivity(f: SymFunc):
    """is_schur_positive from the full reference expansion: the least
    coefficient, the first in descending partition order on a tie."""
    from plethy.schur import Positivity

    if not f:
        return Positivity(True)
    lam, c = min(ref_to_schur(f).terms, key=lambda term: term[1])
    return Positivity(True) if c >= 0 else Positivity(False, lam, c)


def ref_hall_inner(a: dict, b: dict) -> Fraction:
    return sum((v * b[lam] * z_of(lam) for lam, v in a.items() if lam in b), Fraction(0))


def unpack_fields(c: int, w: int, count: int) -> list[int]:
    """The count signed fields of c = sum_j f_j 2^(w j), each f_j in
    [-2^(w-1), 2^(w-1)), peeled off from the low end."""
    half, full = 1 << (w - 1), (1 << w) - 1
    fields = []
    for _ in range(count):
        f = ((c + half) & full) - half
        fields.append(f)
        c = (c - f) >> w
    assert c == 0, "the int has more fields than count"
    return fields


def unpack_batch(terms, w: int, dens) -> list[SymFunc]:
    """The functions of a packed batch (schur.is_schur_positive_packed), read
    back without the package's reader: field j of C_mu, peeled off from the
    low end, is f_j's numerator at mu over dens[j], and a den of 0 is a zero
    function with no field."""
    fields = {mu: unpack_fields(c, w, sum(map(bool, dens))) for mu, c in terms}
    out, j = [], 0
    for den in dens:
        if den:
            out.append(SymFunc({mu: Fraction(v[j], den) for mu, v in fields.items() if v[j]}))
            j += 1
        else:
            out.append(SymFunc.zero())
    return out


def patch_everywhere(monkeypatch, name: str, replacement) -> None:
    """Point every plethy module's binding of the symfunc function `name`
    at replacement, so calls made from any layer go through it."""
    import plethy.symfunc

    original = getattr(plethy.symfunc, name)
    for modname, mod in list(sys.modules.items()):
        if (modname == "plethy" or modname.startswith("plethy.")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def inject_strip_sign_defect(monkeypatch) -> None:
    """Give border strips of length 4 that end on two-row shapes the wrong
    sign, and empty the column memo so every character read goes through
    the defect, in a column, in the walk of to_schur_many or in the band
    moves of the whitehouse scan alike."""
    from plethy import _mn_pure

    real = _mn_pure._add_strips

    def wrong_sign(col, k, out=None, above_top=False):
        moved = real(col, k, above_top=above_top)
        if k == 4:
            moved = {m: -v if len(_mn_pure.decode(m)) == 2 else v for m, v in moved.items()}
        if out is None:
            return moved
        for m, v in moved.items():
            out[m] = out.get(m, 0) + v
        return out

    monkeypatch.setattr(_mn_pure, "_add_strips", wrong_sign)
    monkeypatch.setattr(_mn_pure, "_memo", {})


def truncate(f: SymFunc, cap: int) -> SymFunc:
    """The terms of f of degree <= cap."""
    return SymFunc({lam: c for lam, c in f.items() if sum(lam) <= cap})


def assert_canonical(f: SymFunc) -> None:
    """Lowest terms: positive den, no zero numerator, gcd of all of them 1."""
    nums, den = f._num, f._den
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert gcd(den, *nums.values()) == 1


# -- evaluation oracle ------------------------------------------------------------


def power_sum_at(k: int, xs: list[Fraction]) -> Fraction:
    return sum((x**k for x in xs), Fraction(0))


def is_homogeneous(f: SymFunc) -> bool:
    return len(f.degrees()) <= 1


def point_specialize(f: SymFunc, t) -> Fraction:
    """Substitute p_k -> t for every k, so p_lambda -> t^l(lambda).

    Only defined per homogeneous degree; inhomogeneous input is rejected
    rather than silently summed, and a float t is refused, not rounded.
    """
    if not is_homogeneous(f):
        raise ValueError("point_specialize needs homogeneous input")
    t = _exact(t)
    return sum((c * t ** len(lam) for lam, c in f.items()), Fraction(0))


def eval_at(f: SymFunc, xs: list[Fraction]) -> Fraction:
    """Evaluate a p-basis function at concrete points."""
    total = Fraction(0)
    for lam, c in f.items():
        prod = c
        for part in lam:
            prod *= power_sum_at(part, xs)
        total += prod
    return total


def brute_h(n: int, xs: list[Fraction]) -> Fraction:
    """Complete homogeneous sum by dynamic programming over the variables."""
    coeffs = [Fraction(1)] + [Fraction(0)] * n  # of prod 1/(1 - x_i t)
    for x in xs:
        for d in range(1, n + 1):
            coeffs[d] += coeffs[d - 1] * x
    return coeffs[n]


def brute_e(n: int, xs: list[Fraction]) -> Fraction:
    coeffs = [Fraction(1)] + [Fraction(0)] * n  # of prod (1 + x_i t)
    for x in xs:
        for d in range(min(n, len(xs)), 0, -1):
            coeffs[d] += coeffs[d - 1] * x
    return coeffs[n]


def _det(mat: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                for c2 in range(col, size):
                    m[r][c2] -= factor * m[col][c2]
    return det


def brute_s(lam: tuple, xs: list[Fraction]) -> Fraction:
    """Schur value as a ratio of alternants; xs must be distinct."""
    m = len(xs)
    assert len(lam) <= m
    full = tuple(lam) + (0,) * (m - len(lam))
    num = [[x ** (full[j] + m - 1 - j) for j in range(m)] for x in xs]
    den = [[x ** (m - 1 - j) for j in range(m)] for x in xs]
    return _det(num) / _det(den)


# -- permutation oracles -----------------------------------------------------------


def cycle_type(perm: tuple) -> tuple:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def count_derangements(n: int, cycles: int | None = None) -> int:
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        if cycles is not None and len(cycle_type(perm)) != cycles:
            continue
        count += 1
    return count


def count_by_cycles(n: int, cycles: int) -> int:
    """Signless Stirling number of the first kind, by exhaustion."""
    return sum(1 for perm in itertools.permutations(range(n)) if len(cycle_type(perm)) == cycles)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance pass/fail lines in every run."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ctx8():
    from plethy.series import SeriesContext

    return SeriesContext(8)


@pytest.fixture(scope="session")
def sample_points():
    return [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-1, 5)]
