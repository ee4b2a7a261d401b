from fractions import Fraction
from math import factorial

import pytest

import series_oracle
from conftest import assert_canonical, count_by_cycles, count_derangements
from plethy import series
from plethy.lie_family import Psi, lie
from plethy.partitions import partitions_of
from plethy.schur import to_schur
from plethy.series import (
    Series,
    SeriesContext,
    bracket_sum,
    _product_walk,
    p_sum_over,
    plethystic_inverse,
    product_form,
    restrict_ge2,
    series_plethysm,
)
from plethy.symfunc import SymFunc, e, h, p, plethysm
from series_oracle import delta_part, higher_bracket, hodge_part, psi_family


def geometric_p1(cap):
    return Series(cap, {n: p((1,) * n) if n else SymFunc.one() for n in range(cap + 1)})


def test_series_slots_and_cap():
    S = Series(5, {1: p(1), 3: h(3)})
    assert S.coeff(3) == h(3)
    assert S.coeff(2) == SymFunc.zero()
    with pytest.raises(IndexError):
        S.coeff(6)
    assert S.total() == p(1) + h(3)


def test_series_arithmetic_and_reciprocal():
    cap = 6
    H = Series(cap, {n: h(n) for n in range(cap + 1)})
    Epm = Series(cap, {n: e(n).scale((-1) ** (n % 2)) for n in range(cap + 1)})
    prod = H * Epm
    assert prod.coeff(0) == SymFunc.one()
    for n in range(1, cap + 1):
        assert prod.coeff(n) == SymFunc.zero()
    inv = H.reciprocal()
    for n in range(cap + 1):
        assert inv.coeff(n) == Epm.coeff(n)
    with pytest.raises(ValueError):
        Series(cap, {1: p(1)}).reciprocal()


def test_higher_bracket_examples(ctx8):
    L = ctx8.get("lie")
    for n in range(1, 6):
        assert higher_bracket("H", (1,) * n, L) == h(n)
    total = SymFunc.zero()
    for lam in partitions_of(4):
        total = total + higher_bracket("H", lam, L)
    assert total == p((1, 1, 1, 1))
    L2 = ctx8.get("lie2")
    from plethy.lie_family import lie2

    assert higher_bracket("E", (4,), L2) == lie2(4)
    assert higher_bracket("H", (), L) == SymFunc.one()
    with pytest.raises(IndexError):
        higher_bracket("H", (9,), ctx8.get("lie"))


def test_apply_matches_brackets_graded(ctx8):
    for name in ("lie", "lie2"):
        app = ctx8.get(("H", name))
        brk = ctx8.get(("brackets", "H", name, False))
        keys = set(app.graded_keys()) | set(brk.graded_keys())
        for n, r in keys:
            assert app.graded(n, r) == brk.graded(n, r), (name, n, r)


def test_signed_kinds(ctx8):
    app = ctx8.get(("E", "lie"))
    pm = ctx8.get(("Epm", "lie"))
    for n, r in app.graded_keys():
        assert pm.graded(n, r) == app.graded(n, r).scale((-1) ** (r % 2))


def test_series_plethysm_identity(ctx8):
    # composing with p_1 changes nothing
    L = ctx8.get("lie")
    P1 = Series(8, {1: p(1)})
    again = series_plethysm(L, P1)
    for n in range(9):
        assert again.coeff(n) == L.coeff(n)


def test_plethystic_inverse_two_sided():
    cap = 8
    G = Series(cap, {n: h(n) for n in range(1, cap + 1)})
    F = plethystic_inverse(G)
    FG = series_plethysm(F, G)
    GF = series_plethysm(G, F)
    for n in range(1, cap + 1):
        want = p(1) if n == 1 else SymFunc.zero()
        assert FG.coeff(n) == want
        assert GF.coeff(n) == want


def test_plethystic_inverse_scaled_leading_term():
    cap = 5
    G = Series(cap, {1: p(1).scale(Fraction(2, 3)), 2: h(2)})
    F = plethystic_inverse(G)
    FG = series_plethysm(F, G)
    for n in range(1, cap + 1):
        assert FG.coeff(n) == (p(1) if n == 1 else SymFunc.zero())


def test_plethystic_inverse_needs_unit():
    with pytest.raises(ValueError):
        plethystic_inverse(Series(4, {2: h(2)}))
    with pytest.raises(ValueError):
        plethystic_inverse(Series(4, {1: h(2) * 0, 2: h(2)}))


def test_restrict_ge2_guard():
    S = Series(4, {1: p(1), 2: h(2)})
    out = restrict_ge2(S)
    assert out.coeff(1) == SymFunc.zero()
    assert out.coeff(2) == h(2)
    with pytest.raises(ValueError):
        restrict_ge2(Series(4, {1: p(1).scale(2)}))


def test_product_form_ungraded_fold():
    # at psi = mobius the symmetric-power product collapses to 1/(1-p1)
    S = product_form(_product_walk(Psi.mobius(), -1, 6), 6)
    for n in range(7):
        assert S.coeff(n) == (p((1,) * n) if n else SymFunc.one())
    # totient: all partitions
    S2 = product_form(_product_walk(Psi.totient(), -1, 6), 6)
    for n in range(1, 7):
        assert S2.coeff(n) == p_sum_over(n)
    # two-adic: partitions into powers of two
    S3 = product_form(_product_walk(Psi.two_adic(), -1, 8), 8)
    for n in range(1, 9):
        assert S3.coeff(n) == p_sum_over(n, "parts_powers_of_two")


PSIS = (Psi.mobius(), Psi.totient(), Psi.two_adic())
VARIANTS = tuple(series_oracle.PRODUCT_VARIANTS)


@pytest.mark.parametrize("cap", range(1, 11))
def test_product_form_matches_oracle(cap):
    # two variants are expanded and four derived from them by slot maps; the
    # oracle multiplies out all six directly
    ctx = SeriesContext(cap)
    for psi in PSIS:
        for variant in VARIANTS:
            got = ctx.get(("product", psi.name, variant))
            want = series_oracle.product_form(psi, variant, cap)
            assert got.graded_keys() == want.graded_keys(), (psi.name, variant)
            for key in want.graded_keys():
                assert got.graded(*key) == want.graded(*key), (psi.name, variant, key)
            assert got == want, (psi.name, variant)


def test_product_form_unknown_variant():
    with pytest.raises(KeyError):
        SeriesContext(4).get(("product", "mobius", "nosuch"))


def test_product_of_a_weight_outside_the_three_is_refused():
    # the product keys name the weight; a Psi of another name has no recipe
    with pytest.raises(KeyError):
        SeriesContext(4).get(("product", "custom", "sym"))


def test_bracket_sum_is_the_sum_of_higher_brackets(ctx8):
    def signed(lam):
        return (-1) ** ((sum(lam) - len(lam)) % 2)

    for name in ("lie", "lie2", "conj"):
        Q = ctx8.get(name)
        for kind in ("H", "E"):
            for sign in (None, signed):
                # the signed sum is derived from the unsigned walk by the context
                got = ctx8.get(("brackets", kind, name, True)) if sign else bracket_sum(kind, Q)
                want: dict[tuple[int, int], SymFunc] = {}
                for n in range(9):
                    for lam in partitions_of(n):
                        f = higher_bracket(kind, lam, Q).scale(sign(lam) if sign else 1)
                        key = (n, len(lam))
                        want[key] = want.get(key, SymFunc.zero()) + f
                    total = sum((f for (d, _), f in want.items() if d == n), SymFunc.zero())
                    assert got.coeff(n) == total, (name, kind, sign, n)
                want = {key: f for key, f in want.items() if f}
                assert got.graded_keys() == sorted(want), (name, kind, sign)
                for key, f in want.items():
                    assert got.graded(*key) == f, (name, kind, sign, key)


ORACLE_FAMILIES = ("lie", "lie2", "conj", "lie_ge2", "lie2_ge2", "lie_alt", "lie2_alt", "conj_alt")


def _signed(lam):
    return (-1) ** ((sum(lam) - len(lam)) % 2)


def _same_series(got: Series, want: Series, label) -> None:
    """Every graded slot and every part equal, each result in lowest terms.

    The parts of want are summed here from its slots, one + at a time, not
    read from want.coeff, which Series derives itself.
    """
    keys = want.graded_keys()
    assert got.graded_keys() == keys, label
    for key in keys:
        assert_canonical(got.graded(*key))
        assert got.graded(*key) == want.graded(*key), (label, key)
    for n in range(want.cap + 1):
        part = SymFunc.zero()
        for d, r in keys:
            if d == n:
                part = part + want.graded(d, r)
        assert_canonical(got.coeff(n))
        assert got.coeff(n) == part, (label, n)


@pytest.mark.parametrize("cap", range(1, 11))
def test_apply_series_matches_oracle(cap):
    ctx = SeriesContext(cap)
    for name in ORACLE_FAMILIES:
        F = ctx.get(name)
        for kind in ("H", "E"):
            want = series_oracle.apply_series(kind, F)
            _same_series(ctx.get((kind, name)), want, (name, kind))
            signed = series_oracle.negate_odd_lengths(want)
            _same_series(ctx.get((kind + "pm", name)), signed, (name, kind + "pm"))


@pytest.mark.parametrize(
    "cap, names",
    [(cap, ORACLE_FAMILIES) for cap in range(1, 9)] + [(10, ("lie", "lie2", "conj"))],
    ids=[str(cap) for cap in (*range(1, 9), 10)],
)
def test_outer_powers_match_the_newton_oracle(cap, names):
    # _outer_powers runs the exponential recursion in the degree on packed
    # ints; the oracle runs Newton's recursion in the length, one SymFunc
    # product at a time
    ctx = SeriesContext(cap)
    for name in names:
        for kind in ("H", "E"):
            got = series._outer_powers(kind, ctx.get(("p_k", name)), cap)
            _same_series(got, series_oracle.apply_series(kind, ctx.get(name)), (name, kind))


@pytest.mark.parametrize("cap", range(1, 9))
def test_outer_powers_with_a_fractional_exponent_match_the_oracle(cap):
    # for F = h_1 + h_2 + ..., 3 Y_3 already has the coefficient 3/2 on
    # p_(2,1), so the recursion runs over n! L^n with L > 1
    F = Series(cap, {n: h(n) for n in range(1, cap + 1)})
    pk = series._power_sums(F, cap)
    for kind in ("H", "E"):
        L, _ = series._exponent(kind, pk, cap)
        assert (L > 1) == (cap >= 3), (kind, L)
        want = series_oracle.apply_series(kind, F)
        _same_series(series._outer_powers(kind, pk, cap), want, kind)


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_outer_power_fields_stay_inside_their_bound(name):
    # the field of slot (n, r) at lam is n! L^n times its coefficient; M_n
    # bounds it at every degree, and the width leaves it inside
    # [-2^(w-1), 2^(w-1)).  At cap 16 w is 49 to 54 bits
    cap = 16
    pk = SeriesContext(cap).get(("p_k", name))
    for kind in ("H", "E"):
        L, B = series._exponent(kind, pk, cap)
        M = series._field_bounds(B, L)
        w = max(M).bit_length() + 1
        S = series._outer_powers(kind, pk, cap)
        for n in range(cap + 1):
            scale = factorial(n) * L**n
            fields = [c * scale for r in range(n + 1) for _, c in S.graded(n, r).items()]
            assert all(f.denominator == 1 for f in fields), (kind, n)
            assert max(map(abs, fields), default=0) <= M[n] < 1 << (w - 1), (kind, n)


@pytest.mark.parametrize("weight", ["mobius", "totient", "two_adic"])
def test_walk_fields_stay_inside_their_bound(weight):
    # the coefficients of N_lam sum in size to at most z_lam <= cap!, and
    # the width leaves each inside [-2^(w-1), 2^(w-1)).  At cap 20 w is 63
    # bits and the widest field takes 60 bits plus a sign
    cap = 20
    for sign in (1, -1):
        walk = _product_walk(getattr(Psi, weight)(), sign, cap)
        w = walk[0]
        for n in range(cap + 1):
            den, terms, coeffs = series._degree_terms(walk, n)
            for i, (lam, q) in enumerate(terms):
                z = den // q
                assert sum(abs(column[i]) for column in coeffs) <= z < 1 << (w - 1), (sign, lam)


@pytest.mark.parametrize("cap", range(1, 11))
def test_bracket_sum_matches_oracle(cap):
    ctx = SeriesContext(cap)
    for name in ORACLE_FAMILIES:
        Q = ctx.get(name)
        for kind in ("H", "E"):
            want = series_oracle.bracket_sum(kind, Q)
            _same_series(bracket_sum(kind, Q), want, (name, kind))
            signed = series_oracle.bracket_sum(kind, Q, _signed)
            _same_series(ctx.get(("brackets", kind, name, True)), signed, (name, kind, "signed"))


@pytest.mark.parametrize("cap", range(1, 11))
def test_series_product_matches_oracle(cap):
    ctx = SeriesContext(cap)
    signs = Series(cap, graded={(k, k): e(k).scale((-1) ** (k % 2)) for k in range(cap + 1)})
    for name in ORACLE_FAMILIES:
        A = ctx.get(("H", name))
        B = ctx.get(("Epm", name))
        for X, Y in ((A, B), (B, A), (signs, A), (A, B.drop_grading()), (ctx.get(name), A)):
            got = X * Y
            _same_series(got, series_oracle.series_mul(X, Y), name)
            flat = series_oracle.series_mul(X.drop_grading(), Y.drop_grading())
            for n in range(cap + 1):
                assert got.coeff(n) == flat.coeff(n), (name, n)
        G = A.drop_grading()
        _same_series(G.reciprocal(), series_oracle.reciprocal(G), name)


def test_bracket_kind_must_be_h_or_e(ctx8):
    with pytest.raises(ValueError, match="kind"):
        bracket_sum("X", ctx8.get("lie"))
    with pytest.raises(ValueError, match="kind"):
        higher_bracket("X", (1,), ctx8.get("lie"))


@pytest.mark.parametrize("cap", range(1, 11))
def test_plethystic_inverse_matches_oracle(cap):
    for G in (
        Series(cap, {n: h(n) for n in range(1, cap + 1)}),
        Series(cap, {n: e(n) for n in range(1, cap + 1)}),
        Series(cap, {1: p(1).scale(2), **{n: h(n) for n in range(2, cap + 1)}}),
    ):
        got = plethystic_inverse(G)
        want = series_oracle.plethystic_inverse(G)
        assert got == want


def test_product_form_grading_matches_operator(ctx8):
    A = ctx8.get(("H", "lie"))
    B = ctx8.get(("product", "mobius", "sym"))
    keys = set(A.graded_keys()) | set(B.graded_keys())
    for n, r in keys:
        assert A.graded(n, r) == B.graded(n, r), (n, r)


def test_vh_and_whitney_match_the_newton_slots():
    # the readers go through the product formulas; the oracle through Newton
    ctx = SeriesContext(12)
    for n in range(1, 13):
        for k in range(n):
            assert ctx.vh(n, k) == series_oracle.vh(ctx, n, k), (n, k)
            assert ctx.whitney(n, k) == series_oracle.whitney(ctx, n, k), (n, k)


def test_alternating_sums_match_oracle():
    ctx = SeriesContext(14)
    for n in range(1, 15):
        for one, row, oracle in (
            (ctx.u, ctx.u_row(n), series_oracle.u),
            (ctx.beta_rank, ctx.beta_row(n), series_oracle.beta_rank),
        ):
            assert len(row) == n
            for k in range(n):
                want = oracle(ctx, n, k)
                for got in (one(n, k), row[k]):
                    assert_canonical(got)
                    assert got == want, (oracle.__name__, n, k)


def test_readers_refuse_a_degree_above_the_cap():
    # the rows read the cached walk, the graded pieces the cached products;
    # each names the degree and the cap
    ctx = SeriesContext(4)
    reads = (
        lambda: ctx.u_row(6),
        lambda: ctx.beta_row(6),
        lambda: ctx.u(6, 2),
        lambda: ctx.beta_rank(6, 2),
        lambda: ctx.whitney(6, 2),
        lambda: ctx.vh(6, 2),
    )
    for read in reads:
        with pytest.raises(IndexError, match="degree 6 outside cap 4"):
            read()


def test_telescoping_invariants(ctx8):
    for n in range(2, 9):
        for k in range(n):
            left = ctx8.whitney(n, k)
            right = ctx8.beta_rank(n, k) + (
                ctx8.beta_rank(n, k - 1) if k >= 1 else SymFunc.zero()
            )
            assert left == right, (n, k)
            left2 = ctx8.vh(n, k)
            right2 = ctx8.u(n, k) + (ctx8.u(n, k - 1) if k >= 1 else SymFunc.zero())
            assert left2 == right2, (n, k)


def test_whitney_closed_values(ctx8):
    # rank one: omega(e_(n-1)[lie]|_n) = omega(omega(lie_n)) at the top
    assert dict(to_schur(ctx8.whitney(4, 3)).terms) == {(3, 1): 1, (2, 1, 1): 1}
    assert ctx8.whitney(4, 0) == h(4)


def test_graded_dimension_profile(ctx8):
    # dim of the (n, j) slot of H[lie] is the count of permutations with j cycles
    app = ctx8.get(("H", "lie"))
    for n in range(1, 8):
        for j in range(1, n + 1):
            assert app.graded(n, j).dimension() == count_by_cycles(n, j), (n, j)
    appg = ctx8.get(("H", "lie_ge2"))
    appe = ctx8.get(("E", "lie_ge2"))
    appd = ctx8.get(("E", "lie2_ge2"))
    for n in range(2, 8):
        for j in range(1, n):
            expected = count_derangements(n, j)
            assert appg.graded(n, j).dimension() == expected, (n, j)
            assert appe.graded(n, j).dimension() == expected, (n, j)
            # the two-adic refinement of the injective-words character
            # carries the same cycle-counted derangement dimensions
            assert appd.graded(n, j).dimension() == expected, (n, j)


def test_delta_recurrence_and_dimension(ctx8):
    ctx = SeriesContext(12)
    dims = {0: 1, 1: 0}
    for n in range(2, 13):
        delta_n = ctx.delta(n)
        assert delta_n == p(1) * ctx.delta(n - 1) + h(n).scale((-1) ** (n % 2))
        dims[n] = delta_n.dimension()
        assert dims[n] == n * dims[n - 1] + (-1) ** n
    for n in range(2, 9):
        assert dims[n] == count_derangements(n)


def test_delta_equals_exterior_sum(ctx8):
    app = ctx8.get(("E", "lie2_ge2"))
    for n in range(2, 9):
        assert app.coeff(n) == ctx8.delta(n)


def test_hodge_vs_two_adic_split_differ_at_four(ctx8):
    # the two refinements agree in total but not piecewise
    for k in (1, 2):
        assert delta_part(ctx8, 4, k) != hodge_part(ctx8, 4, k).omega()
    total_delta = delta_part(ctx8, 4, 1) + delta_part(ctx8, 4, 2)
    total_hodge = hodge_part(ctx8, 4, 1) + hodge_part(ctx8, 4, 2)
    assert total_delta == total_hodge.omega() == ctx8.delta(4)


def test_hodge_part_pieces(ctx8):
    assert dict(to_schur(hodge_part(ctx8, 4, 2).omega()).terms) == {(2, 2): 1, (4,): 1}
    assert dict(to_schur(hodge_part(ctx8, 4, 1).omega()).terms) == {(3, 1): 1, (2, 1, 1): 1}
    assert dict(to_schur(delta_part(ctx8, 4, 2)).terms) == {(3, 1): 1}
    assert dict(to_schur(delta_part(ctx8, 4, 1)).terms) == {
        (4,): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
    }


def test_sigma_chain(ctx8):
    assert dict(to_schur(ctx8.sigma(4)).terms) == {(4,): 2, (3, 1): -1, (2, 2): 1}
    for n in range(2, 11):
        sg = ctx8.sigma(n)
        assert sg.dimension() == 1
        assert sg.partial_p1() == ctx8.sigma(n - 1)


def test_tau_values(ctx8):
    for n in range(4, 9):
        exp = dict(to_schur(ctx8.tau(n)).terms)
        assert exp == {(n - 2, 1, 1): 1, (n - 2, 2): -1}
    assert dict(to_schur(ctx8.tau(3)).terms) == {(1, 1, 1): 1}
    assert dict(to_schur(ctx8.tau(2)).terms) == {(1, 1): 1}


def test_g_fn(ctx8):
    assert ctx8.g_fn(0) == SymFunc.one()
    assert ctx8.g_fn(2) == p(2)
    assert ctx8.g_fn(4) == p(4) + p((2, 2))
    assert ctx8.g_fn(3) == SymFunc.zero()
    for n in range(2, 9):
        g = ctx8.g_fn(n)
        if g:
            assert g.dimension() == 0


def test_kappa_iteration_stabilizes(ctx8):
    gen = ctx8.get("kappa")
    sums = ctx8.iterate_generator(gen)
    assert len(sums) == 4  # the bit length of the cap 8
    assert sums[-1] == sums[-2]
    lhs = ctx8.get("lie_ge2")
    for n in range(9):
        assert sums[-1].coeff(n) == lhs.coeff(n)


def test_conj_from_series(ctx8):
    S = ctx8.get(("conj_from", "lie"))
    T = ctx8.get(("conj_from", "lie2"))
    for n in range(1, 9):
        assert S.coeff(n) == ctx8.get("conj").coeff(n)
        assert T.coeff(n) == ctx8.get("conj").coeff(n)


def test_psi_family_series(ctx8):
    from plethy.lie_family import Psi

    fam = psi_family(ctx8, Psi.mobius())
    for n in range(1, 9):
        assert fam.coeff(n) == ctx8.get("lie").coeff(n)


def test_module_level_wrappers(ctx8):
    # the sign-twisted kappa tower gives lie2_(>=2); conj_from("lie") gives conj
    sums = ctx8.iterate_generator(ctx8.get("omega_kappa"))
    for n in range(9):
        assert sums[-1].coeff(n) == ctx8.get("lie2_ge2").coeff(n)
    assert ctx8.get(("conj_from", "lie")).coeff(5) == ctx8.get("conj").coeff(5)


def test_omega_commutes_with_odd_power_plethysm():
    from plethy.lie_family import lie

    for k in (1, 3, 5):
        for f in (h(3), lie(4), h(2) * e(2)):
            assert plethysm(f, p(k)).omega() == plethysm(f.omega(), p(k))


def test_graded_multiplication_adds_lengths():
    cap = 4
    A = Series(cap, graded={(1, 1): p(1)})
    B = Series(cap, graded={(2, 3): h(2)})
    C = A * B
    assert C.graded(3, 4) == p(1) * h(2)
    assert C.coeff(3) == p(1) * h(2)


def test_graded_series_compare_by_slots():
    # equal degree sums, different lengths
    A = Series(4, graded={(2, 1): h(2), (2, 2): e(2)})
    B = Series(4, graded={(2, 2): h(2), (2, 1): e(2)})
    assert A.coeff(2) == B.coeff(2)
    assert A != B
    assert A == Series(4, graded={(2, 2): e(2), (2, 1): h(2)})


def test_series_takes_one_store():
    with pytest.raises(ValueError, match="not both"):
        Series(4, {2: h(2)}, {(2, 1): h(2)})


def test_degree_parts_sit_in_length_zero_slots():
    S = Series(4, {2: h(2)})
    assert S.graded(2, 0) == h(2)
    assert S.graded_keys() == [(2, 0)]
    assert S == Series(4, graded={(2, 0): h(2)})


def test_sum_of_graded_and_degree_parts_is_slot_by_slot(ctx8):
    H = ctx8.get(("H", "lie"))
    kappa = ctx8.get("kappa")
    S = H + kappa
    assert S.graded_keys() == sorted(set(H.graded_keys()) | set(kappa.graded_keys()))
    for n, r in S.graded_keys():
        assert S.graded(n, r) == H.graded(n, r) + kappa.graded(n, r), (n, r)
    for n in range(9):
        assert S.graded(n, 0) == H.graded(n, 0) + kappa.coeff(n)
        assert S.coeff(n) == H.coeff(n) + kappa.coeff(n)


def test_slot_above_the_cap_is_refused():
    with pytest.raises(ValueError, match="outside degrees"):
        Series(4, {5: h(5)})
    with pytest.raises(ValueError, match="outside degrees"):
        Series(4, graded={(5, 1): h(5)})
