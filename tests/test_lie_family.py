from fractions import Fraction
from math import factorial

import pytest

from conftest import point_specialize
from plethy.lie_family import (
    Psi,
    conj,
    ell,
    f_from_psi,
    lie,
    lie2,
    ramanujan_sum,
    whitehouse_deficit,
)
from plethy.partitions import mobius, partitions_of, totient
from plethy.schur import hook_dimension, is_schur_positive, to_schur
from plethy.symfunc import SymFunc, e, h, mul_trunc, p, plethysm
from tableau_oracle import descent_set, major_index, standard_tableaux, syt_multiplicity


def test_f_from_psi_values():
    quarter = Fraction(1, 4)
    assert f_from_psi(Psi.mobius(), 4) == SymFunc({(1, 1, 1, 1): quarter, (2, 2): -quarter})
    assert f_from_psi(Psi.totient(), 4) == SymFunc(
        {(1, 1, 1, 1): quarter, (2, 2): quarter, (4,): Fraction(1, 2)}
    )
    assert f_from_psi(Psi.mobius(), 1) == p(1)


def test_ramanujan_sums():
    for d in range(1, 13):
        assert ramanujan_sum(d, d) == totient(d)
        assert ramanujan_sum(d, 1) == mobius(d)
    assert ramanujan_sum(4, 2) == -2
    # brute force from roots of unity is unavailable exactly; use the
    # Moebius-sum form sum over k | (d, r) of mu(d/k) k instead
    for d in range(1, 16):
        for r in range(1, 16):
            direct = sum(mobius(d // k) * k for k in range(1, d + 1) if d % k == 0 and r % k == 0)
            assert ramanujan_sum(d, r) == direct


def test_ell_reduces_to_the_named_families():
    for n in range(1, 11):
        assert ell(n, 1) == lie(n)
        assert ell(n, n) == conj(n)
    assert ell(4, 4) == SymFunc(
        {(1, 1, 1, 1): Fraction(1, 4), (2, 2): Fraction(1, 4), (4,): Fraction(1, 2)}
    )
    with pytest.raises(ValueError):
        ell(4, 5)


def test_ell_table_row():
    assert dict(to_schur(ell(6, 2)).terms) == {
        (5, 1): 1,
        (4, 2): 2,
        (4, 1, 1): 1,
        (3, 2, 1): 3,
        (3, 1, 1, 1): 2,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
        (2, 1, 1, 1, 1): 1,
    }


def test_lie2_trichotomy():
    for n in range(1, 13):
        if n % 2 == 1:
            assert lie2(n) == lie(n)
        elif n & (n - 1) == 0:
            assert lie2(n) == conj(n)
        if n % 4 == 2:
            assert lie2(n) == lie(n).omega()


def test_lie2_is_a_single_psi_family():
    psi = Psi.two_adic()
    for n in range(1, 17):
        assert f_from_psi(psi, n) == lie2(n)


def test_ell_dimensions_and_integrality():
    for n in range(1, 11):
        for r in range(1, n + 1):
            f = ell(n, r)
            assert f.dimension() == factorial(n - 1)
            exp = to_schur(f)  # raises if any coefficient is non-integer
            assert exp.dimension() == factorial(n - 1)


def test_ell_row_sum_is_the_regular_representation():
    for n in range(1, 11):
        total = SymFunc.zero()
        for r in range(1, n + 1):
            total = total + ell(n, r)
        assert total == p((1,) * n)


def test_specialization_relations_metaf():
    ramanujan3 = Psi("ramanujan(3)", lambda d: ramanujan_sum(d, 3))
    weights = [Psi.mobius(), Psi.totient(), ramanujan3, Psi.two_adic()]
    for psi in weights:
        values = {n: point_specialize(f_from_psi(psi, n), 1) for n in range(1, 21)}
        neg = {n: point_specialize(f_from_psi(psi, n), -1) for n in range(1, 21)}
        for m in range(0, 10):
            if 2 * m + 1 <= 20:
                assert neg[2 * m + 1] == -values[2 * m + 1]
        for m in range(1, 11):
            if 2 * m <= 20:
                assert neg[2 * m] == values[m] - values[2 * m]


def test_recursive_characterization_even_degrees():
    # lie(n) + h_2[lie2(n/2)] = lie2(n) + e_2[lie2(n/2)] for even n
    for n in range(2, 13, 2):
        half = lie2(n // 2)
        lhs = lie(n) + plethysm(h(2), half)
        rhs = lie2(n) + plethysm(e(2), half)
        assert lhs == rhs, n


# -- tableaux -----------------------------------------------------------------


def test_tableau_counts_match_hook_formula():
    for n in range(1, 9):
        for lam in partitions_of(n):
            count = sum(1 for _ in standard_tableaux(lam))
            assert count == hook_dimension(lam)


def test_tableau_shape_and_validity():
    tabs = list(standard_tableaux((3, 2)))
    assert len(tabs) == 5
    for tab in tabs:
        rows = [list(r) for r in tab]
        flat = sorted(v for r in rows for v in r)
        assert flat == [1, 2, 3, 4, 5]
        for r in rows:
            assert r == sorted(r)
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                assert rows[i][j] > rows[i - 1][j]


def test_descents_and_major_index():
    tab = ((1, 3, 5), (2, 4))  # descents at 1 and 3
    assert descent_set(tab) == {1, 3}
    assert major_index(tab) == 4
    row = ((1, 2, 3, 4),)
    assert major_index(row) == 0


def test_syt_multiplicity_examples():
    for n in range(1, 9):
        assert syt_multiplicity((n,), n) == 1
    assert syt_multiplicity((3, 1), 1) == 1
    assert syt_multiplicity((2, 1, 1), 1) == 1
    assert syt_multiplicity((2, 2), 1) == 0
    assert syt_multiplicity((2, 2), 4) == 1


def test_syt_counts_equal_schur_coefficients_small():
    # the full n <= 8 sweep lives in the acceptance suite
    for n in range(1, 7):
        for r in range(1, n + 1):
            exp = dict(to_schur(ell(n, r)).terms)
            for lam in partitions_of(n):
                assert exp.get(lam, 0) == syt_multiplicity(lam, r), (n, r, lam)



def _maj_counts_mod_n(lam: tuple) -> list[int]:
    """Standard tableaux of shape lam counted by major index mod n.

    Stanley's q-hook formula (EC2 7.21.5): the major-index generating
    function is q^b(lam) [n]_q! / prod over cells of [h]_q, with b(lam) =
    sum (i-1) lam_i.  The (1-q) factors cancel, leaving q^b(lam) prod_i
    (1-q^i) / prod_cells (1-q^h).  Each division is exact, because the
    hooks divisible by d never outnumber the i <= n divisible by d.
    """
    n = sum(lam)
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = [part - j + cols[j] - i - 1 for i, part in enumerate(lam) for j in range(part)]
    poly = [1]
    for i in range(1, n + 1):  # times (1 - q^i)
        poly = poly + [0] * i
        for e in range(len(poly) - 1, i - 1, -1):
            poly[e] -= poly[e - i]
    for hook in hooks:  # divided by (1 - q^hook)
        for e in range(hook, len(poly)):
            poly[e] += poly[e - hook]
    shift = sum(i * part for i, part in enumerate(lam))
    counts = [0] * n
    for e, c in enumerate(poly):
        counts[(e + shift) % n] += c
    return counts


def test_q_hook_oracle_matches_tableau_enumeration():
    for n in range(1, 8):
        for lam in partitions_of(n):
            counts = _maj_counts_mod_n(lam)
            assert sum(counts) == hook_dimension(lam)
            assert counts == [syt_multiplicity(lam, r) for r in [n] + list(range(1, n))], lam


def test_ell_schur_coefficients_match_q_hook_formula():
    # Kraskiewicz-Weyman: <ell(n, r), s_lam> counts the standard tableaux of
    # shape lam with maj = r mod n
    for n in range(1, 17):
        counts = {lam: _maj_counts_mod_n(lam) for lam in partitions_of(n)}
        for r in range(1, n + 1):
            exp = dict(to_schur(ell(n, r)).terms)
            assert set(exp) <= set(counts), (n, r)
            for lam, row in counts.items():
                assert exp.get(lam, 0) == row[r % n], (n, r, lam)

# -- lifting deficits ----------------------------------------------------------


def test_whitehouse_dimension():
    for n in range(3, 9):
        deficit = whitehouse_deficit(n, "lie").omega()
        assert deficit.dimension() == factorial(n - 2)


def test_whitehouse_examples():
    res = is_schur_positive(whitehouse_deficit(8, "lie2"))
    assert not res.positive and res.witness_partition == (8,) and res.witness_coeff == -1
    assert is_schur_positive(whitehouse_deficit(6, "lie2")).positive
    with pytest.raises(ValueError):
        whitehouse_deficit(4, "nope")
    with pytest.raises(ValueError):
        whitehouse_deficit(1, "lie")


@pytest.mark.parametrize("family, build", [("lie", lie), ("lie2", lie2)])
def test_whitehouse_deficit_matches_the_ring_product(family, build):
    # the deficit's p_1 product is a relabelling; the keyed product is the oracle
    for n in range(2, 41):
        assert whitehouse_deficit(n, family) == mul_trunc(p(1), build(n - 1), n) - build(n), n
