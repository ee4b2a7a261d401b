import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_type, inject_strip_sign_defect, ref_positivity, ref_to_schur
from conftest import unpack_batch
from deficit_oracle import deficit_verdicts, rectangle_column
from mn_oracle import mn_character as oracle_character
from mn_oracle import mn_table as oracle_table
from plethy import _mn_pure, schur
from plethy.lie_family import Psi, f_from_psi, whitehouse_deficit
from plethy.partitions import conjugate, divisors, partitions_of, z_of
from plethy.schur import (
    NotVirtualCharacter,
    Positivity,
    SchurExpansion,
    _walk,
    character,
    hook_dimension,
    is_schur_positive,
    is_schur_positive_many,
    to_schur,
    to_schur_many,
)
from plethy.series import SeriesContext
from plethy.symfunc import SymFunc, e, h, linear_sum, p, s


def _column(mu: tuple) -> dict[tuple, int]:
    """{lam: chi^lam(mu)}, decoded from the memoized column of mu."""
    return {_mn_pure.decode(m): v for m, v in _mn_pure.keyed_column(mu).items()}


def test_trivial_and_sign_characters():
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == (-1) ** ((n - len(mu)) % 2)


def test_standard_character_from_permutation_matrices():
    # trace of the permutation representation is the fixed-point count, so
    # the standard character is (#fixed points) - 1
    for n in (3, 4, 5):
        lam = (n - 1, 1)
        counts = {mu: 0 for mu in partitions_of(n)}
        traces = {mu: 0 for mu in partitions_of(n)}
        for perm in itertools.permutations(range(n)):
            mu = cycle_type(perm)
            counts[mu] += 1
            traces[mu] += sum(1 for i in range(n) if perm[i] == i) - 1
        for mu in partitions_of(n):
            assert character(lam, mu) * counts[mu] == traces[mu]
    assert character((2, 1), (3,)) == -1


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_orthogonality_rows_and_columns():
    for n in range(1, 11):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                assert total == (z_of(mu) if mu == nu else 0)
        for lam in parts:
            for rho in parts:
                total = sum(
                    Fraction(character(lam, mu) * character(rho, mu), z_of(mu))
                    for mu in parts
                )
                assert total == (1 if lam == rho else 0)


def test_schur_against_jacobi_trudi():
    # independent construction: s_lam = det(h_(lam_i - i + j))
    def jt(lam):
        size = len(lam)
        rows = []
        for i in range(size):
            rows.append([lam[i] - (i + 1) + (j + 1) for j in range(size)])
        total = SymFunc.zero()
        for perm in itertools.permutations(range(size)):
            sign = 1
            seen = list(perm)
            # count inversions for the signature
            inv = sum(
                1 for a in range(size) for b in range(a + 1, size) if seen[a] > seen[b]
            )
            sign = -1 if inv % 2 else 1
            prod = SymFunc.one()
            ok = True
            for i in range(size):
                idx = rows[i][perm[i]]
                if idx < 0:
                    ok = False
                    break
                prod = prod * h(idx)
            if ok:
                prod = prod.scale(sign)
                total = total + prod
        return total

    for n in range(1, 7):
        for lam in partitions_of(n):
            assert s(lam) == jt(lam), lam


def test_columns_match_oracle_tables():
    for n in range(0, 15):
        parts = partitions_of(n)
        expected = oracle_table(parts)
        for c, mu in enumerate(parts):
            column = _column(mu)
            assert all(column.values()) and set(column) <= set(parts)
            assert [column.get(lam, 0) for lam in parts] == [row[c] for row in expected]
        assert [[character(lam, mu) for mu in parts] for lam in parts] == expected


def test_rectangle_columns_match_oracle_at_32():
    # the p-support of the degree-32 whitehouse deficit: (d^m) for d | 32
    # and (d^m, 1) for d | 31
    parts = partitions_of(32)
    sample = parts[::400] + (
        (8, 7, 6, 5, 4, 2),
        (16, 16),
        (8, 8, 8, 8),
        (4,) * 8,
        (17,) + (1,) * 15,
    )
    mus = [(d,) * (32 // d) for d in (1, 2, 4, 8, 16, 32)] + [(31, 1)]
    for mu in mus:
        column = _column(mu)
        for lam in sample:
            assert column.get(lam, 0) == oracle_character(lam, mu), (lam, mu)


def test_column_orthogonality():
    for n in range(1, 13):
        parts = partitions_of(n)
        cols = [_column(mu) for mu in parts]
        for a, mu in enumerate(parts):
            col_mu = cols[a]
            for nu, col_nu in zip(parts[a:], cols[a:]):
                total = sum(v * col_nu.get(lam, 0) for lam, v in col_mu.items())
                assert total == (z_of(mu) if mu == nu else 0), (mu, nu)


def test_bead_masks_round_trip():
    seen = set()
    for n in range(0, 21):
        for lam in partitions_of(n):
            mask = _mn_pure.encode(lam)
            assert mask & 1 == 0 and mask.bit_count() == len(lam), lam
            assert _mn_pure.decode(mask) == lam
            seen.add(mask)
    assert _mn_pure.encode(()) == 0 and _mn_pure.decode(0) == ()
    assert len(seen) == sum(len(partitions_of(n)) for n in range(0, 21))
    # a mask decodes the same whatever its size
    big = (61, 40, 40, 25, 13, 8, 5, 3, 2, 1, 1, 1)
    assert sum(big) == 200
    mask = _mn_pure.encode(big)
    assert mask.bit_length() > 64 and _mn_pure.decode(mask) == big


def test_strips_on_the_empty_shape_are_the_hooks():
    for k in range(1, 12):
        col = _mn_pure._add_strips({0: 1}, k)
        hooks = {(k - i,) + (1,) * i: (-1) ** i for i in range(k)}
        assert {_mn_pure.decode(m): v for m, v in col.items()} == hooks, k


def test_mask_conjugate_matches_the_partition_conjugate():
    for n in range(0, 17):
        for lam in partitions_of(n):
            mask = _mn_pure.encode(lam)
            assert _mn_pure.conjugate(mask) == _mn_pure.encode(conjugate(lam)), lam
            assert _mn_pure.conjugate(_mn_pure.conjugate(mask)) == mask, lam


def test_strips_above_the_top_bead_are_the_strips_that_reach_the_first_row():
    for n in range(0, 11):
        for nu in partitions_of(n):
            one = {_mn_pure.encode(nu): 1}
            for k in range(1, 7):
                full = {_mn_pure.decode(m): v for m, v in _mn_pure._add_strips(one, k).items()}
                top = _mn_pure._add_strips(one, k, above_top=True)
                want = {mu: v for mu, v in full.items() if mu[0] > (nu[0] if nu else 0)}
                assert {_mn_pure.decode(m): v for m, v in top.items()} == want, (nu, k)


def _is_rep(mask: int) -> bool:
    return mask.bit_length() >= 2 * mask.bit_count()


def _reps(col: dict[int, int]) -> dict[int, int]:
    return {m: v for m, v in col.items() if _is_rep(m)}


def test_half_strips_match_the_full_strips_on_rectangle_columns():
    # the column of (d^m) is the value at lam' times sgn(d^m) = (-1)^((d-1)m)
    for k in range(1, 7):
        for d in range(1, 17):
            for m in range(0, 16 // d + 1):
                col = _mn_pure.keyed_column((d,) * m)
                sign = (-1) ** ((d - 1) * m)
                got = _mn_pure._half_strips(_reps(col), k, lambda v: sign * v)
                assert got == _reps(_mn_pure._add_strips(col, k)), (k, d, m)


def test_half_strips_match_the_full_strips_on_packed_vectors():
    # random f, a, b at one shape of each conjugate pair, and f, b, a at the
    # other (a = b on a self-conjugate shape), so the flip is schur._swap
    wf, wr = 20, 24
    rng = random.Random(20261020)
    for n in range(0, 15):
        col = {}
        for lam in partitions_of(n):
            mask, conj = _mn_pure.encode(lam), _mn_pure.encode(conjugate(lam))
            if conj in col:
                continue
            f, a = rng.randrange(1 << (wf - 1)), rng.randrange(-(1 << 22), 1 << 22)
            b = a if conj == mask else rng.randrange(-(1 << 22), 1 << 22)
            col[mask], col[conj] = (f + (x << wf) + (y << (wf + wr)) for x, y in ((a, b), (b, a)))
        for k in range(1, 7):
            got = _mn_pure._half_strips(_reps(col), k, lambda v: schur._swap(v, wf, wr))
            assert got == _reps(_mn_pure._add_strips(col, k)), (n, k)


def test_one_strips_match_the_oracle():
    # the 1-strip path of _add_strips on every column of degree <= 13, and
    # in its out= form on a signed vector of packed ints, summed into what
    # out already holds
    encode = _mn_pure.encode
    for n in range(0, 14):
        parts, up = partitions_of(n), partitions_of(n + 1)
        for mu in parts:
            got = _mn_pure._add_strips(_mn_pure.keyed_column(mu), 1)
            want = {lam: oracle_character(lam, mu + (1,)) for lam in up}
            assert got == {encode(lam): v for lam, v in want.items() if v}, mu
        cs = {mu: (-1) ** i * (2**70 + i) << (80 * (i % 3)) for i, mu in enumerate(parts)}
        vec: dict[int, int] = {}
        for mu, c in cs.items():
            for m, v in _mn_pure.keyed_column(mu).items():
                vec[m] = vec.get(m, 0) + c * v
        out = {encode(lam): i - 3 for i, lam in enumerate(up)}
        base = dict(out)
        assert _mn_pure._add_strips(vec, 1, out) is out
        assert set(out) == set(base)
        for lam in up:
            moved = sum(c * oracle_character(lam, mu + (1,)) for mu, c in cs.items())
            assert out[encode(lam)] == base[encode(lam)] + moved, lam


def test_a_whole_term_read_replaces_its_prefix(monkeypatch):
    monkeypatch.setattr(_mn_pure, "_memo", {})
    for mu in ((3, 2, 1), (2, 1), (1,)):  # a shorter read keeps the longer column
        _mn_pure.keyed_column(mu)
    assert set(_mn_pure._memo) == {(1,), (1, 2), (1, 2, 3)}
    held = _mn_pure.keyed_column((4, 3, 2, 1))  # built from (1, 2, 3), stored alone
    assert set(_mn_pure._memo) == {(1,), (1, 2), (1, 2, 3, 4)}
    kept = dict(held)
    _mn_pure.keyed_column((4, 4, 3, 2, 1))
    assert set(_mn_pure._memo) == {(1,), (1, 2), (1, 2, 3, 4, 4)}
    assert held == kept  # a caller's dropped column is left as it was
    assert _mn_pure.keyed_column((4, 4, 3, 2, 1)) is _mn_pure.keyed_column((4, 4, 3, 2, 1))
    assert _mn_pure.keyed_column(()) == {0: 1} and set(_mn_pure._memo) == {(1,), (1, 2), (1, 2, 3, 4, 4)}


def test_a_partial_read_leaves_only_what_it_read(monkeypatch):
    # s(lam) reads the column of every mu of its degree, and no ascending
    # prefix of one of them is a whole partition of that degree
    monkeypatch.setattr(_mn_pure, "_memo", {})
    s((3, 2, 1))
    assert set(_mn_pure._memo) == {mu[::-1] for mu in partitions_of(6)}
    assert len(_mn_pure._memo) == 11


def _term_column(mu: tuple) -> dict[int, int]:
    """The column of mu as the Schur walk reads one whole term."""
    return _walk([(mu, 1)], 0)


@pytest.mark.parametrize("read", [_mn_pure.keyed_column, _term_column], ids=["keyed_column", "term_column"])
def test_a_dropped_column_is_rebuilt_exactly(monkeypatch, read):
    monkeypatch.setattr(_mn_pure, "_memo", {})
    for mu in ((2, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (3, 1, 1), (5, 3, 1, 1)):
        _mn_pure.keyed_column(mu)
    assert set(_mn_pure._memo) == {(2, 2, 2, 2, 3), (1, 1, 3, 5)}
    for mu in ((2, 2), (2, 2, 2, 2), (3, 1, 1), (1, 1), (3, 2, 2, 2, 2)):
        want = {lam: oracle_character(lam, mu) for lam in partitions_of(sum(mu))}
        col = read(mu)
        assert col == {_mn_pure.encode(lam): v for lam, v in want.items() if v}, mu


def test_whitehouse_scan_keeps_the_last_column_of_each_chain(monkeypatch):
    # the deficit's support is (d^m) and (d^m, 1), so the scan reads whole
    # terms on the chains (1^n), (d^m) and (1, d^m), each read a few strips
    # past the one before: the memo ends with the last term read on each
    from plethy.lie_family import whitehouse_deficit

    monkeypatch.setattr(_mn_pure, "_memo", {})
    last = {}
    for n in range(2, 25):
        f = whitehouse_deficit(n, "lie2")
        for mu in f.support():
            assert set(mu[:-1]) <= {mu[0]}, mu
            last[mu[0], mu[-1]] = mu[::-1]
        is_schur_positive(f)
    keys = set(_mn_pure._memo)
    assert keys == set(last.values())
    assert not any(a != b and b[: len(a)] == a for a in keys for b in keys)


def test_to_schur_round_trip():
    for n in range(1, 9):
        for lam in partitions_of(n):
            exp = to_schur(s(lam))
            assert dict(exp.terms) == {lam: 1}


def test_to_schur_reference_values():
    from plethy.lie_family import lie, lie2

    assert dict(to_schur(lie(4)).terms) == {(3, 1): 1, (2, 1, 1): 1}
    assert dict(to_schur(lie2(4)).terms) == {(4,): 1, (2, 2): 1, (2, 1, 1): 1}
    assert dict(to_schur(lie(5)).terms) == {
        (4, 1): 1,
        (3, 2): 1,
        (3, 1, 1): 1,
        (2, 2, 1): 1,
        (2, 1, 1, 1): 1,
    }


def test_to_schur_rejects_non_virtual():
    with pytest.raises(NotVirtualCharacter) as err:
        to_schur(h(2).scale(Fraction(1, 2)))
    assert err.value.partition == (2,)
    with pytest.raises(ValueError):
        to_schur(h(1) + h(2))  # inhomogeneous


def test_schur_expansion_dimensions():
    from plethy.lie_family import lie

    for n in range(1, 9):
        exp = to_schur(lie(n))
        assert exp.dimension() == factorial(n - 1)
        assert exp.dimension() == lie(n).dimension()


def test_hook_dimension():
    assert hook_dimension((3, 2)) == 5
    assert hook_dimension(()) == 1
    for n in range(1, 9):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_positivity_witness():
    from plethy.lie_family import whitehouse_deficit

    res = is_schur_positive(whitehouse_deficit(8, "lie2"))
    assert not res.positive
    assert res.witness_partition == (8,)
    assert res.witness_coeff == -1
    assert is_schur_positive(whitehouse_deficit(6, "lie2")).positive
    assert is_schur_positive(SymFunc.zero()).positive
    assert bool(Positivity(True)) is True
    assert bool(Positivity(False, (8,), -1)) is False


def test_exponent_rendering():
    exp = SchurExpansion(4, (((3, 1), 1), ((2, 2), 2)))
    assert exp.exponent_str() == "(3,1)+2(2^2)"
    assert str(exp) == "(3,1)+2(2^2)"


def test_wire_format():
    exp = to_schur(s((2, 1)))
    payload = exp.to_dict()
    assert payload == {
        "basis": "s",
        "degree": 3,
        "terms": [{"partition": [2, 1], "coeff": "1"}],
    }


def test_to_schur_matches_oracle():
    from plethy.lie_family import whitehouse_deficit

    f = whitehouse_deficit(13, "lie2")
    nums, den = f._num, f._den
    expected = []
    for lam in partitions_of(13):
        total = sum(c * oracle_character(lam, mu) for mu, c in nums.items())
        if total:
            q, r = divmod(total, den)
            assert r == 0
            expected.append((lam, q))
    expansion = to_schur(f)
    assert expansion.terms == tuple(expected)
    assert expansion.dimension() == f.dimension()


# -- batched expansion --------------------------------------------------------


@st.composite
def schur_batch(draw, max_n=12):
    """1 to n + 2 functions of one degree n: integer combinations of Schur
    functions (their own denominators, terms that cancel at some mu), each
    with an optional p-term over a small denominator that may leave it
    short of a virtual character."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    shapes = partitions_of(n)
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=n + 2))):
        f = SymFunc.zero()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            lam = draw(st.sampled_from(shapes))
            size = draw(st.sampled_from((9, 10**6, 10**30)))
            f = f + s(lam).scale(draw(st.integers(min_value=-size, max_value=size)))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            mu = draw(st.sampled_from(shapes))
            num = draw(st.integers(min_value=-9, max_value=9))
            f = f + p(mu).scale(Fraction(num, draw(st.integers(min_value=1, max_value=3))))
        batch.append(f or s(draw(st.sampled_from(shapes))))
    return batch


@settings(max_examples=80, deadline=None)
@given(schur_batch())
def test_to_schur_many_matches_the_per_function_reference(batch):
    got = to_schur_many(batch)
    for f in batch:
        try:
            want = ref_to_schur(f)
        except NotVirtualCharacter as exc:
            with pytest.raises(NotVirtualCharacter) as err:
                next(got)
            assert (err.value.partition, err.value.coeff) == (exc.partition, exc.coeff)
            return
        expansion = next(got)
        assert expansion == want
        shapes = [lam for lam, _ in expansion.terms]
        assert shapes == sorted(set(shapes), reverse=True)
        assert all(c for _, c in expansion.terms)
    assert next(got, None) is None


@pytest.mark.parametrize("c", [2**8, 2**16, 2**64])
def test_to_schur_many_fields_round_a_byte_boundary(c):
    # p_3 = s(3) - s(2,1) + s(1^3), and isqrt(z_(3)) = 1 = |chi^lam((3))|, so
    # the width bound is tight here: the middle function's field at (2,1)
    # is +c, the largest value w allows, between fields of magnitude c - 1
    # and the opposite sign
    batch = [p(3).scale(c - 1), p(3).scale(-c), p(3).scale(c - 1)]
    below = {(3,): c - 1, (2, 1): 1 - c, (1, 1, 1): c - 1}
    above = {(3,): -c, (2, 1): c, (1, 1, 1): -c}
    assert [dict(e.terms) for e in to_schur_many(batch)] == [below, above, below]
    assert [dict(to_schur(f).terms) for f in batch] == [below, above, below]


def test_to_schur_many_yields_up_to_the_first_non_virtual_function():
    good = s((2, 1)) - s((1, 1, 1)).scale(3)
    bad = p(3).scale(Fraction(1, 2)) + s((3,))
    with pytest.raises(NotVirtualCharacter) as alone:
        to_schur(bad)
    got = to_schur_many([good, bad, s((3,))])
    assert next(got) == to_schur(good)
    with pytest.raises(NotVirtualCharacter) as err:
        next(got)
    assert (err.value.partition, err.value.coeff) == (alone.value.partition, alone.value.coeff)
    assert err.value.partition == (3,) and err.value.coeff == Fraction(3, 2)


def test_to_schur_many_refuses_zero_and_mixed_degrees():
    assert list(to_schur_many([])) == []
    with pytest.raises(ValueError):
        next(to_schur_many([s((2,)), SymFunc.zero()]))
    with pytest.raises(ValueError):
        next(to_schur_many([s((2,)), s((3,))]))
    with pytest.raises(ValueError):
        next(to_schur_many([h(1) + h(2)]))


def test_positivity_batch_matches_one_at_a_time():
    from plethy.lie_family import whitehouse_deficit

    zero = SymFunc.zero()
    fs = [zero, whitehouse_deficit(8, "lie2"), zero, p((4, 2, 1, 1)), s((4, 4)), zero]
    assert list(is_schur_positive_many(fs)) == [is_schur_positive(f) for f in fs]
    assert [r.positive for r in is_schur_positive_many(fs)] == [True, False, True, False, True, True]
    assert list(is_schur_positive_many([SymFunc.zero()] * 3)) == [Positivity(True)] * 3


def test_positivity_batch_reports_a_failure_before_a_later_raise():
    # called through the module, so that a stand-in of test_mutations runs
    results = schur.is_schur_positive_many([p((2, 1)), p(3).scale(Fraction(1, 2))])
    assert next(results) == Positivity(False, (1, 1, 1), -1)
    with pytest.raises(NotVirtualCharacter):
        next(results)


@pytest.mark.parametrize("family", ["lie", "lie2"])
def test_positivity_reader_matches_the_reference_on_the_deficits(family):
    # n = 4, 8, 16, 32 are the lie2 failures; at n = 8 three shapes tie at -1
    from plethy.lie_family import whitehouse_deficit

    if family == "lie2":
        tied = ref_to_schur(whitehouse_deficit(8, family)).terms
        assert [lam for lam, c in tied if c == -1] == [(8,), (4, 4), (2, 2, 2, 2)]
    for n in range(2, 37):
        f = whitehouse_deficit(n, family)
        assert is_schur_positive(f) == ref_positivity(f), n


# -- the deficit scan --------------------------------------------------------------
# these call schur.deficit_positivity through the module, so that the stand-ins
# of test_mutations, set on the module, are what runs


@pytest.mark.parametrize(
    "psi, family", [(Psi.two_adic(), "lie2"), (Psi.mobius(), "lie")], ids=["two_adic", "mobius"]
)
def test_deficit_positivity_matches_the_expansion(psi, family):
    want = [is_schur_positive(whitehouse_deficit(n, family)) for n in range(2, 37)]
    assert list(schur.deficit_positivity(psi, 36)) == want


def test_deficit_positivity_witness():
    # at n = 8 the lie2 deficit is -1 at (8,), (4,4) and (2,2,2,2)
    *_, at_8 = schur.deficit_positivity(Psi.two_adic(), 8)
    assert at_8 == Positivity(False, (8,), -1)


def test_deficit_positivity_refuses_a_non_integral_coefficient():
    # psi = 1 makes f_3 = (p_1^3 + p_3)/3, which is not a virtual character
    one = Psi("one", lambda d: 1)
    scan = schur.deficit_positivity(one, 3)
    assert next(scan) == is_schur_positive(p(1) * f_from_psi(one, 1) - f_from_psi(one, 2))
    with pytest.raises(NotVirtualCharacter) as want:
        is_schur_positive(p(1) * f_from_psi(one, 2) - f_from_psi(one, 3))
    with pytest.raises(NotVirtualCharacter) as got:
        next(scan)
    assert (got.value.partition, got.value.coeff) == (want.value.partition, want.value.coeff)


def test_the_lie_deficit_is_positive_to_40():
    # p_1 Lie_(n-1) - Lie_n is the Whitehouse module, a true representation
    assert all(schur.deficit_positivity(Psi.mobius(), 40))


def test_the_deficit_at_the_one_row_shape_has_a_closed_form():
    # chi^(n) = 1 on every class, so N_n[(n)] = psi(1) + n sum_(d|n-1, d>1)
    # psi(d) - (n-1) sum_(d|n, d>1) psi(d), with no character built; its
    # quotient by n(n-1) is the coefficient of s_(n), -1 exactly at the
    # powers of two n >= 4, where the scan names (n) as its witness
    psi = Psi.two_adic()
    scan = list(schur.deficit_positivity(psi, 32))
    for n in range(2, 49):
        below = sum(psi(d) for d in range(2, n) if (n - 1) % d == 0)
        at = sum(psi(d) for d in range(2, n + 1) if n % d == 0)
        q, r = divmod(psi(1) + n * below - (n - 1) * at, n * (n - 1))
        assert r == 0, n
        if n in (4, 8, 16, 32):
            assert q == -1 and scan[n - 2] == Positivity(False, (n,), -1), n
        else:
            assert q in (0, 1), n
            assert n > 32 or scan[n - 2].positive, n


def _quotient_columns_differ(top: int) -> list[tuple]:
    """The (n, d), n <= top, whose rectangle column (d^(n/d)) keyed_column
    gives otherwise than the d-quotient oracle."""
    return [
        (n, d)
        for n in range(1, top + 1)
        for d in divisors(n)
        if {_mn_pure.encode(lam): v for lam, v in rectangle_column(n, d).items()}
        != _mn_pure.keyed_column((d,) * (n // d))
    ]


def test_the_quotient_oracle_gives_every_rectangle_column():
    assert _quotient_columns_differ(16) == []


def test_the_quotient_oracle_sees_a_strip_sign_defect(monkeypatch):
    inject_strip_sign_defect(monkeypatch)
    assert _quotient_columns_differ(16)


@pytest.mark.parametrize("psi", [Psi.two_adic(), Psi.mobius()], ids=["two_adic", "mobius"])
def test_the_deficit_scan_gives_the_quotient_oracle_verdicts(psi):
    # verdicts and witnesses from the d-quotient formula, with no strip moved
    want = deficit_verdicts(psi, 24)
    assert [tuple(res) for res in schur.deficit_positivity(psi, 24)] == want


def test_deficit_scan_leaves_the_column_memo_as_it_found_it(monkeypatch):
    # the rectangle columns are half columns local to the scan
    monkeypatch.setattr(_mn_pure, "_memo", {})
    _mn_pure.keyed_column((3, 2, 2))
    before = {key: dict(col) for key, col in _mn_pure._memo.items()}
    list(schur.deficit_positivity(Psi.two_adic(), 24))
    assert _mn_pure._memo == before


@pytest.mark.parametrize("psi, top", [(Psi.two_adic(), 40), (Psi.mobius(), 24)], ids=["two_adic", "mobius"])
def test_deficit_fields_stay_inside_their_bounds(monkeypatch, psi, top):
    # each 1-strip pass into degree n gives, at every rep lam, f^lam <=
    # isqrt(n!) and the two Ind(R_(n-1)) fields within c T: T is the sum of
    # |psi(d)| isqrt(z_(d^m)) over d | n-1, d > 1, m = (n-1)/d, which bounds
    # |R_(n-1)|, and c is the most corners a shape of n has.  The widths are
    # exactly those bounds plus a sign bit; below 13 the fields are exact
    real, seen = _mn_pure._half_strips, []

    def record(half, k, flip):
        out = real(half, k, flip)
        if k == 1:
            seen.append(dict(out))  # the scan writes the next degree into out
        return out

    monkeypatch.setattr(_mn_pure, "_half_strips", record)
    list(schur.deficit_positivity(psi, top))
    assert len(seen) == top - 1
    for n, packed in enumerate(seen, 2):
        root = isqrt(factorial(n))
        corners = max(c for c in range(n + 1) if c * (c + 1) // 2 <= n)
        rects = [(d,) * ((n - 1) // d) for d in divisors(n - 1)[1:]]
        bound = corners * sum(abs(psi(rect[0])) * isqrt(z_of(rect)) for rect in rects)
        wf, wr = schur._layout(psi, n)
        assert (wf, wr) == (root.bit_length(), bound.bit_length() + 1), n
        for mask, v in packed.items():
            f, a, b = schur._unpack(v, wf, wr)
            assert 0 < f <= root and abs(a) <= bound and abs(b) <= bound, (n, mask)
        if n < 13:
            lam_of = {_mn_pure.encode(lam): lam for lam in partitions_of(n) if lam[0] >= len(lam)}
            assert set(packed) == set(lam_of)
            rects = [((d,) * ((n - 1) // d) + (1,), psi(d)) for d in divisors(n - 1)[1:]]
            for mask, v in packed.items():
                lam = lam_of[mask]
                ind = [sum(c * oracle_character(nu, mu) for mu, c in rects) for nu in (lam, conjugate(lam))]
                assert schur._unpack(v, wf, wr) == (hook_dimension(lam), *ind), (n, lam)


# -- the trie walk ----------------------------------------------------------------


def _prefix_counts(support) -> Counter:
    """{rho: number of mu in support that start with rho} over nonempty rho."""
    return Counter(mu[:d] for mu in support for d in range(1, len(mu) + 1))


# coefficient sizes around the byte boundaries of the packed width
_SIZES = (1, 9, 2**8 - 1, 2**8, 2**16, 2**16 + 1, 2**64 - 1, 2**64, 10**30)


@st.composite
def trie_batch(draw, max_n=12):
    """1 to 4 functions of one degree n on a support built to exercise every
    kind of child in the walk: all the mu below a drawn prefix (three or
    more terms, walked, wherever the degree has such a prefix), one mu and
    maybe a sibling that shares its largest part (one or two terms, read as
    columns), and the mu with parts at most 2 (a walk down a chain of 2s,
    each node leaving a chain of 1s to a column).  Coefficients straddle
    byte boundaries.  At n = 3, 4, 5 the batch may also hold the tight
    triple c - 1, -c, c - 1 times the p_mu where |chi^lam(mu)| reaches
    isqrt(z_mu), which puts a field at the largest value w allows; those
    degrees have no child with three terms.  An optional p-term over a
    small denominator may leave a function short of a virtual character.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    shapes = partitions_of(n)
    counts = _prefix_counts(shapes)
    wide = sorted(rho for rho, c in counts.items() if c >= 3)
    support = set()
    if wide:
        rho = draw(st.sampled_from(wide))
        support.update(mu for mu in shapes if mu[: len(rho)] == rho)
    mu = draw(st.sampled_from(shapes))
    support.add(mu)
    siblings = [nu for nu in shapes if nu[0] == mu[0]]
    support.add(draw(st.sampled_from(siblings)))
    support.update(mu for mu in shapes if mu[0] <= 2)
    support = sorted(support)

    def coeff():
        size = draw(st.sampled_from(_SIZES))
        return draw(st.sampled_from((size, -size)))

    batch = []
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        picked = support if j == 0 else draw(st.sets(st.sampled_from(support), min_size=1))
        f = linear_sum((coeff(), p(mu)) for mu in sorted(picked))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            c = Fraction(draw(st.integers(min_value=1, max_value=9)), draw(st.sampled_from((2, 3))))
            f = f + p(draw(st.sampled_from(shapes))).scale(c)
        batch.append(f or p(shapes[0]))
    tight = {3: (3,), 4: (2, 2), 5: (2, 2, 1)}.get(n)
    if tight and draw(st.booleans()):
        c = draw(st.sampled_from((2**8, 2**16, 2**64)))
        at = draw(st.integers(min_value=0, max_value=len(batch)))
        batch[at:at] = [p(tight).scale(c - 1), p(tight).scale(-c), p(tight).scale(c - 1)]
    return batch


@settings(max_examples=120, deadline=None)
@given(trie_batch())
def test_walk_matches_the_per_function_reference(batch):
    got = to_schur_many(batch)
    for f in batch:
        try:
            want = ref_to_schur(f)
        except NotVirtualCharacter as exc:
            with pytest.raises(NotVirtualCharacter) as err:
                next(got)
            assert (err.value.partition, err.value.coeff) == (exc.partition, exc.coeff)
            return
        assert next(got) == want
    assert next(got, None) is None


@settings(max_examples=120, deadline=None)
@given(trie_batch())
def test_positivity_reader_matches_the_reference_on_walked_batches(batch):
    got = is_schur_positive_many(batch)
    for f in batch:
        try:
            want = ref_positivity(f)
        except NotVirtualCharacter as exc:
            with pytest.raises(NotVirtualCharacter) as err:
                next(got)
            assert (err.value.partition, err.value.coeff) == (exc.partition, exc.coeff)
            return
        assert next(got) == want
    assert next(got, None) is None


def test_degree_zero_is_the_roots_own_coefficient():
    # mu = () ends at the root: the only node with a coefficient of its own
    one = SymFunc.one()
    got = to_schur_many([one, one.scale(-3), one.scale(Fraction(2, 3))])
    assert [dict(next(got).terms), dict(next(got).terms)] == [{(): 1}, {(): -3}]
    with pytest.raises(NotVirtualCharacter):
        next(got)


@pytest.mark.parametrize("row", ["u_row", "beta_row"])
def test_positivity_rows_match_the_reference(row):
    # the batches the U-POS and BETA-POS scans expand, term by term, and the
    # witness each scan reports: the most negative coefficient, first in
    # descending partition order
    ctx = SeriesContext(14)
    for n in range(2, 15):
        fs = getattr(ctx, row)(n)
        wants = [ref_to_schur(f) for f in fs if f]
        assert list(to_schur_many([f for f in fs if f])) == wants, n
        assert list(is_schur_positive_many(fs)) == [ref_positivity(f) for f in fs], n


@pytest.mark.parametrize("row", ["u_row", "beta_row"])
def test_packed_rows_are_the_batches_of_their_symfuncs(row):
    # the scans read each degree's packed row straight off the running sums:
    # the same fields, denominators and width as the SymFunc rows packed by
    # _pack, and every function's Schur numerators inside the width's bound
    ctx = SeriesContext(16)
    for n in range(2, 17):
        terms, w, dens = getattr(ctx, row)(n, packed=True)
        want_terms, want_w, want_dens = schur._pack(getattr(ctx, row)(n))
        assert (dict(terms), w, dens) == (dict(want_terms), want_w, want_dens), n
        for f in unpack_batch(terms, w, dens):
            bound = sum(abs(c) * isqrt(z_of(mu)) for mu, c in f._num.items())
            assert bound < 2 ** (w - 1), n


def _outcomes(verdicts) -> list:
    """The verdicts up to the first NotVirtualCharacter, which ends the list
    as (partition, coefficient)."""
    out = []
    try:
        out.extend(verdicts)
    except NotVirtualCharacter as exc:
        out.append((exc.partition, exc.coeff))
    return out


@pytest.mark.parametrize("defect", [False, True], ids=["sound", "strip-sign-defect"])
@pytest.mark.parametrize("row", ["u_row", "beta_row"])
def test_packed_scan_reads_like_the_symfunc_batches(monkeypatch, row, defect):
    # under the strip-sign defect both readers must fail alike: the same
    # witnesses, and the same shape and coefficient when integrality fails
    if defect:
        inject_strip_sign_defect(monkeypatch)
    ctx = SeriesContext(20)
    raised = 0
    for n in range(2, 21):
        got = _outcomes(schur.is_schur_positive_packed(*getattr(ctx, row)(n, packed=True)))
        assert got == _outcomes(is_schur_positive_many(getattr(ctx, row)(n))), n
        raised += not isinstance(got[-1], Positivity)
    assert bool(raised) == defect


def test_walk_keeps_only_the_columns_of_small_children(monkeypatch):
    # a dense degree leaves no full table behind.  A child of the root with
    # one or two terms reads whole terms, a smaller child deeper down reads
    # mu less the prefix of its node, and _memo holds what the store rule
    # makes of those reads in the order they came, and nothing else
    fs = [f for f in SeriesContext(12).u_row(12) if f]
    support = set().union(*(f.support() for f in fs))
    assert len(support) == len(partitions_of(12))
    counts = _prefix_counts(support)
    whole, partial = set(), set()
    for mu in support:
        # the first child on the way down to mu with at most two terms; mu
        # itself is one, since no other mu of its degree starts with it
        d = next(d for d in range(len(mu)) if counts[mu[: d + 1]] <= 2)
        (partial if d else whole).add(mu[d:])
    reads = []
    real = _mn_pure.keyed_column
    monkeypatch.setattr(_mn_pure, "keyed_column", lambda mu: reads.append(mu) or real(mu))
    monkeypatch.setattr(_mn_pure, "_memo", {})
    list(to_schur_many(fs))
    assert {mu for mu in reads if sum(mu) == 12} == whole
    assert {mu for mu in reads if sum(mu) < 12} == partial
    expected: set[tuple] = set()
    for mu in reads:
        rest = mu[::-1]
        k = max(i for i in range(len(rest) + 1) if i == 0 or rest[:i] in expected)
        if k < len(rest):
            expected.discard(rest[:k])
            expected.add(rest)
    assert set(_mn_pure._memo) == expected
    assert sum(sum(key) == 12 for key in expected) == len(whole) == 5
