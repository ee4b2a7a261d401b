import json
import random
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_canonical,
    brute_e,
    brute_h,
    brute_s,
    count_derangements,
    eval_at,
    is_homogeneous,
    patch_everywhere,
    point_specialize,
    ref_add,
    ref_hall_inner,
    ref_mul,
    ref_omega,
    ref_partial_p1,
    ref_plethysm,
    ref_scale,
    ref_terms,
    symfunc_strategy,
    truncate,
)
from plethy.partitions import partitions_of
from plethy.symfunc import (
    Keyed,
    SymFunc,
    _Powers,
    e,
    h,
    hall_inner,
    linear_sum,
    mul_sum,
    mul_trunc,
    p,
    plethysm,
    s,
)


def test_h_e_frozen_expansions():
    assert h(2) == SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert e(2) == SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert h(0) == SymFunc.one()
    assert e(0) == SymFunc.one()
    assert h(1) == p(1)
    assert s((1, 1)) == e(2)


def test_constructors_against_point_evaluation(sample_points):
    xs = sample_points
    for n in range(7):
        assert eval_at(h(n), xs) == brute_h(n, xs)
        assert eval_at(e(n), xs) == brute_e(n, xs)
    for n in range(1, 6):
        for lam in partitions_of(n):
            if len(lam) <= len(xs):
                assert eval_at(s(lam), xs) == brute_s(lam, xs)


def test_newton_identities_cross_check():
    for n in range(1, 9):
        acc = SymFunc.zero()
        for k in range(1, n + 1):
            acc = acc + p(k) * h(n - k)
        assert acc == h(n).scale(n)
        acc = SymFunc.zero()
        for k in range(1, n + 1):
            term = p(k) * e(n - k)
            acc = acc + (term if k % 2 else -term)
        assert acc == e(n).scale(n)


def test_mul_examples():
    assert p(2) * p(1) == p((2, 1))
    assert h(1) * h(1) == p((1, 1))
    assert e(2) * h(2) == SymFunc({(1, 1, 1, 1): Fraction(1, 4), (2, 2): Fraction(-1, 4)})


@settings(max_examples=60)
@given(symfunc_strategy(), symfunc_strategy(), symfunc_strategy())
def test_ring_axioms(f, g, k):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + k == f + (g + k)
    assert (f * g) * k == f * (g * k)
    assert f * (g + k) == f * g + f * k
    assert f - f == SymFunc.zero()
    assert f * SymFunc.one() == f


@settings(max_examples=40)
@given(symfunc_strategy(), symfunc_strategy())
def test_evaluation_is_a_ring_map(f, g):
    xs = [Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
    assert eval_at(f * g, xs) == eval_at(f, xs) * eval_at(g, xs)
    assert eval_at(f + g, xs) == eval_at(f, xs) + eval_at(g, xs)


def test_plethysm_frozen_examples():
    assert plethysm(p(2), p(3)) == p(6)
    assert plethysm(h(2), p(2)) == SymFunc({(2, 2): Fraction(1, 2), (4,): Fraction(1, 2)})
    # inverse pair: (p1 - p2) o (sum of p_(2^k)) = p1 up to the cap
    q = SymFunc({(1,): 1, (2,): 1, (4,): 1, (8,): 1})
    assert plethysm(p(1) - p(2), q, cap=8) == p(1)


def test_plethysm_rejects_constant_term():
    with pytest.raises(ValueError):
        plethysm(h(2), SymFunc.one() + p(1))


def test_plethysm_cap_is_exact_truncation():
    g = h(1) + h(2)
    full = plethysm(h(3), g)
    capped = plethysm(h(3), g, cap=4)
    assert capped == truncate(full, 4)


def test_keyed_values_keep_their_cap():
    # a key means a different partition under another cap, so mixing is refused
    f = h(2) + h(3)
    assert Keyed.encode(f, 5).symfunc() == f
    assert Keyed.encode(f, 2).parts() == {2: h(2)}
    with pytest.raises(ValueError, match="keyed for caps"):
        mul_sum([(Keyed.encode(f, 5), Keyed.encode(f, 6))], 6)
    assert not mul_sum([], 4)


@settings(max_examples=25, deadline=None)
@given(
    symfunc_strategy(max_deg=4, max_terms=3),
    symfunc_strategy(max_deg=4, max_terms=3, min_deg=1),
    symfunc_strategy(max_deg=4, max_terms=3, min_deg=1),
)
def test_plethysm_associativity(f, g, k):
    k = k - k.homogeneous_part(0)
    g = g - g.homogeneous_part(0)
    if not k:
        return
    cap = 8
    lhs = plethysm(f, plethysm(g, k, cap), cap)
    rhs = plethysm(plethysm(f, g, cap), k, cap)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(
    symfunc_strategy(max_deg=4, max_terms=3),
    symfunc_strategy(max_deg=4, max_terms=3),
    symfunc_strategy(max_deg=4, max_terms=3, min_deg=1),
)
def test_plethysm_homomorphism_law(f, g, k):
    k = k - k.homogeneous_part(0)
    if not k:
        return
    cap = 8
    lhs = plethysm(f * g, k, cap)
    rhs = mul_trunc(plethysm(f, k, cap), plethysm(g, k, cap), cap)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(symfunc_strategy(max_deg=4, max_terms=3, min_deg=1), st.integers(min_value=1, max_value=4))
def test_power_sums_commute_with_plethysm(f, k):
    f = f - f.homogeneous_part(0)
    if not f:
        return
    assert plethysm(p(k), f) == plethysm(f, p(k))


@settings(max_examples=30, deadline=None)
@given(
    symfunc_strategy(max_deg=4, max_terms=3, homogeneous=True, min_deg=1),
    symfunc_strategy(max_deg=4, max_terms=3, min_deg=1),
)
def test_sign_rule(f, g):
    # f o (-g) = (-1)^(deg f) (omega f) o g for homogeneous f
    g = g - g.homogeneous_part(0)
    if not f or not g:
        return
    d = f.degree()
    lhs = plethysm(f, -g, cap=8)
    rhs = plethysm(f.omega(), g, cap=8).scale((-1) ** (d % 2))
    assert lhs == rhs


def test_omega():
    assert h(3).omega() == e(3)
    assert p((2, 1)).omega() == -p((2, 1))
    for n in range(7):
        assert h(n).omega() == e(n)
        assert e(n).omega() == h(n)


@settings(max_examples=40)
@given(symfunc_strategy())
def test_omega_involution_and_isometry(f):
    assert f.omega().omega() == f


@settings(max_examples=40)
@given(symfunc_strategy(max_deg=5), symfunc_strategy(max_deg=5))
def test_omega_isometry_and_ring_map(f, g):
    assert hall_inner(f.omega(), g.omega()) == hall_inner(f, g)
    assert (f * g).omega() == f.omega() * g.omega()


def test_he_unit_identity():
    # sum over k of (-1)^(n-k) h_k e_(n-k) vanishes for 1 <= n <= 12
    for n in range(1, 13):
        acc = SymFunc.zero()
        for k in range(n + 1):
            term = h(k) * e(n - k)
            acc = acc + (term if (n - k) % 2 == 0 else -term)
        assert acc == SymFunc.zero()


def test_hall_inner_values():
    assert hall_inner(p((2, 1)), p((2, 1))) == 2
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert hall_inner(s(lam), s(lam)) == 1
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if lam != mu:
                    assert hall_inner(s(lam), s(mu)) == 0
    # brute force from the expansions: <h_n, h_n> = sum of 1/z_lam = 1,
    # while pairing h_n against the all-classes sum counts partitions
    for n in range(1, 9):
        assert hall_inner(h(n), h(n)) == 1
        all_classes = SymFunc({lam: 1 for lam in partitions_of(n)})
        assert hall_inner(h(n), all_classes) == len(partitions_of(n))


def test_point_specialize():
    assert point_specialize(h(3), 1) == 1
    f = p((2, 1)).scale(3)
    assert point_specialize(f, Fraction(1, 2)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        point_specialize(h(1) + h(2), 1)


@settings(max_examples=30)
@given(
    symfunc_strategy(max_deg=4, homogeneous=True),
    symfunc_strategy(max_deg=4, homogeneous=True),
)
def test_point_specialize_multiplicative(f, g):
    if not f or not g:
        return
    t = Fraction(2, 3)
    assert point_specialize(f * g, t) == point_specialize(f, t) * point_specialize(g, t)


def test_partial_p1():
    assert p((1,) * 5).partial_p1() == p((1,) * 4).scale(5)
    for n in range(1, 9):
        assert e(n).partial_p1() == e(n - 1)
        assert h(n).partial_p1() == h(n - 1)
    from plethy.lie_family import lie

    for n in range(1, 11):
        expect = p((1,) * (n - 1)) if n > 1 else SymFunc.one()
        assert lie(n).partial_p1() == expect


def test_dimension():
    from plethy.lie_family import lie
    from plethy.series import SeriesContext

    assert lie(4).dimension() == 6
    for n in range(1, 8):
        assert h(n).dimension() == 1
        assert e(n).dimension() == 1
        assert lie(n).dimension() == factorial(n - 1)
    # injective-words character has derangement dimension, brute-forced
    ctx = SeriesContext(8)
    assert ctx.delta(4).dimension() == count_derangements(4) == 9
    for n in range(2, 8):
        assert ctx.delta(n).dimension() == count_derangements(n)


def test_degree_utilities():
    f = h(2) + p(3)
    assert f.degrees() == {2, 3}
    assert not is_homogeneous(f)
    assert f.homogeneous_part(2) == h(2)
    assert truncate(f, 2) == h(2)
    with pytest.raises(ValueError):
        f.degree()


def test_serialization_round_trip():
    f = h(3) - p((2, 2)).scale(Fraction(7, 3))
    payload = f.to_dict()
    assert payload["basis"] == "p"
    # canonical order: by degree then reverse-lex
    parts = [tuple(t["partition"]) for t in payload["terms"]]
    assert parts == sorted(parts, key=lambda lam: (sum(lam), tuple(-x for x in lam)))
    again = SymFunc.from_dict(json.loads(json.dumps(payload)))
    assert again == f
    with pytest.raises(ValueError):
        SymFunc.from_dict({"basis": "s", "terms": []})


def test_randomized_gates_fixed_seed():
    """Mandatory associativity and sign-rule gates using a seeded generator."""
    rng = random.Random(20240817)
    pool = [lam for n in range(1, 5) for lam in partitions_of(n)]

    def rand_symfunc(homogeneous=None):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice(pool)
            terms[lam] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        f = SymFunc(terms)
        return f

    for _ in range(15):
        f, g, k = rand_symfunc(), rand_symfunc(), rand_symfunc()
        if not k:
            continue
        assert plethysm(f, plethysm(g, k, 8), 8) == plethysm(plethysm(f, g, 8), k, 8)
    for _ in range(15):
        g = rand_symfunc()
        if not g:
            continue
        for n in range(1, 7):
            for lam in partitions_of(n)[:2]:
                f = p(lam)
                lhs = plethysm(f, -g, cap=6)
                rhs = plethysm(f.omega(), g, cap=6).scale((-1) ** (n % 2))
                assert lhs == rhs


# -- integer-numerator representation against the Fraction-per-term reference --

scalar_strategy = st.fractions(min_value=-12, max_value=12, max_denominator=30)


def _agrees(got: SymFunc, want: dict) -> None:
    assert_canonical(got)
    assert ref_terms(got) == want


@settings(max_examples=60, deadline=None)
@given(symfunc_strategy(max_deg=5, max_terms=5), symfunc_strategy(max_deg=5, max_terms=5))
def test_add_sub_mul_match_reference(f, g):
    a, b = ref_terms(f), ref_terms(g)
    _agrees(f + g, ref_add(a, b))
    _agrees(f - g, ref_add(a, b, -1))
    _agrees(f - f, {})
    _agrees(-f, ref_scale(a, Fraction(-1)))
    _agrees(f * g, ref_mul(a, b))
    three_f_minus_three_g = ref_add(ref_scale(a, Fraction(3)), ref_scale(b, Fraction(-3)))
    _agrees(linear_sum([(2, f), (-3, g), (1, f)]), three_f_minus_three_g)
    # operands of degree up to 5 hold terms above every cap but the last
    for cap in (-1, 0, 1, 2, 3, 4, 7):
        _agrees(mul_trunc(f, g, cap), ref_mul(a, b, cap))
    for cap in (0, 1, 2, 3, 4, 7):
        kf, kg = Keyed.encode(f, cap), Keyed.encode(g, cap)
        want = ref_add(ref_mul(a, b, cap), ref_mul(b, b, cap))
        _agrees(mul_sum([(kf, kg), (kg, kg)], cap).symfunc(), want)


@settings(max_examples=60, deadline=None)
@given(symfunc_strategy(max_deg=5, max_terms=1), symfunc_strategy(max_deg=5, max_terms=5))
def test_one_term_factor_is_a_relabelling(t, f):
    # a one-term factor on either side relabels the other's terms, and the
    # keyed product is the oracle; 2/3 against a denominator 3 must reduce
    for one in (t, SymFunc.one(), SymFunc({(): Fraction(-2, 3)}), SymFunc({(2, 1): Fraction(3, 4)})):
        want = mul_trunc(one, f, 10)
        for got in (one * f, f * one):
            assert got == want
            assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(
    symfunc_strategy(max_deg=3, max_terms=3),
    symfunc_strategy(max_deg=3, max_terms=3, min_deg=1),
    st.sampled_from([None, 0, 3, 6]),
)
def test_plethysm_matches_reference(f, g, cap):
    g = g - g.homogeneous_part(0)
    _agrees(plethysm(f, g, cap), ref_plethysm(ref_terms(f), ref_terms(g), cap))


@st.composite
def inner_with_low_degree(draw):
    """A g with no constant term whose lowest degree is 2 or 3, the gmin of
    the degree test in _Powers.apply."""
    gmin = draw(st.sampled_from([2, 3]))
    low = draw(st.sampled_from(partitions_of(gmin)))
    coeff = draw(st.integers(min_value=1, max_value=5)) * draw(st.sampled_from([1, -1]))
    rest = draw(symfunc_strategy(max_deg=gmin + 2, max_terms=2, min_deg=gmin + 1))
    return rest + p(low).scale(Fraction(coeff, draw(st.integers(min_value=1, max_value=3))))


@settings(max_examples=80, deadline=None)
@given(
    symfunc_strategy(max_deg=6, max_terms=6),
    inner_with_low_degree(),
    st.sampled_from([None, *range(13)]),
)
def test_plethysm_degree_budget_matches_reference(f, g, cap):
    _agrees(plethysm(f, g, cap), ref_plethysm(ref_terms(f), ref_terms(g), cap))


def test_plethysm_fixed_edge_cases():
    f = SymFunc({(): Fraction(3, 2), (2,): 1, (1, 1): Fraction(-1, 3), (3, 1): 2})
    g = p(3) - p((2, 1)).scale(Fraction(1, 2)) + p(4)
    constant = SymFunc.one().scale(Fraction(3, 2))
    for cap in (None, 0, 5):
        # g = 0: every p_lambda with lambda nonempty vanishes
        assert plethysm(f, SymFunc.zero(), cap) == constant
    # caps below the lowest degree of g keep only the constant term
    for cap in (0, 1, 2):
        assert plethysm(f, g, cap) == constant
    assert plethysm(f, g, -1) == SymFunc.zero()
    assert plethysm(SymFunc.zero(), g, 4) == SymFunc.zero()
    a, b = ref_terms(f), ref_terms(g)
    for cap in (None, 3, 4, 6, 7, 8, 12):
        _agrees(plethysm(f, g, cap), ref_plethysm(a, b, cap))


def test_ring_calls_match_reference(monkeypatch):
    """Every plethysm (a _Powers apply) and mul_sum call made by
    verify_all(8) equals the reference ring on the same arguments.

    These two kernels form every product verify_all makes: mul_trunc and
    SymFunc products are one-pair mul_sum calls, and plethysm, bracket_sum,
    plethystic_inverse and the power sums all apply a _Powers memo.
    The registry asks for some plethysms more than once, so the distinct
    (f, g, cap) are counted: those are the arguments that get checked.
    """
    from plethy.registry import verify_all

    calls = {"mul_sum": 0}
    distinct = set()
    real_apply = _Powers.apply

    def checked_apply(self, f):
        out = real_apply(self, f)
        _agrees(out.symfunc(), ref_plethysm(ref_terms(f), ref_terms(self.g), self.cap))
        nums = [v for _, terms in out.groups for _, v in terms]
        assert all(nums) and gcd(out.den, *nums) == 1  # reduced once, in the memo
        distinct.add((tuple(f.items()), tuple(self.g.items()), self.cap))
        return out

    def checked_mul_sum(pairs, cap):
        pairs = list(pairs)
        out = mul_sum(pairs, cap)
        want: dict = {}
        for a, b in pairs:
            want = ref_add(want, ref_mul(ref_terms(a.symfunc()), ref_terms(b.symfunc()), cap))
        _agrees(out.symfunc(), want)
        nums = [v for _, terms in out.groups for _, v in terms]
        assert all(nums) and gcd(out.den, *nums) == 1  # reduced once, in the kernel
        calls["mul_sum"] += 1
        return out

    monkeypatch.setattr(_Powers, "apply", checked_apply)
    patch_everywhere(monkeypatch, "mul_sum", checked_mul_sum)
    reports = verify_all(8)
    assert not any(r.failed for r in reports)
    assert len(distinct) > 150 and calls["mul_sum"] > 400, (len(distinct), calls)


@st.composite
def shared_inner_requests(draw):
    """One inner g and an interleaved run of requests on one _Powers memo
    per cap: ("apply", cap, f) for several f, and ("power", cap, lam) for a
    single p_lam[g]."""
    g = draw(inner_with_low_degree())
    caps = draw(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=2, unique=True))
    fs = draw(st.lists(symfunc_strategy(max_deg=5, max_terms=4), min_size=2, max_size=4))
    requests = [("apply", cap, f) for f in fs for cap in caps]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lam = draw(st.sampled_from([lam for n in range(1, 5) for lam in partitions_of(n)]))
        requests.append(("power", draw(st.sampled_from(caps)), lam))
    return g, draw(st.permutations(requests))


# p_(2,1)[g] is first built as a prefix of p_(2,1,1)[g]
@example((p(2) + p(3), [("apply", 9, p((2, 1, 1))), ("apply", 9, p((2, 1)))]))
@settings(max_examples=60, deadline=None)
@given(shared_inner_requests())
def test_memo_shared_by_several_f_matches_reference(case):
    """Whatever the order of requests, every apply equals the reference
    plethysm, and every entry of each memo, the prefixes built on the way
    included, equals the reference p_lam[g] cut to the memo's cap."""
    g, requests = case
    b = ref_terms(g)
    memos = {cap: _Powers(g, cap) for _, cap, _ in requests}
    for kind, cap, arg in requests:
        memo = memos[cap]
        if kind == "apply":
            _agrees(memo.apply(arg).symfunc(), ref_plethysm(ref_terms(arg), b, cap))
        else:
            memo.power(arg)
    for cap, memo in memos.items():
        for lam, groups in memo._memo.items():
            got = Keyed(memo.keys, groups, g._den ** len(lam)).symfunc()
            assert ref_terms(got) == ref_plethysm({lam: Fraction(1)}, b, cap), (lam, cap)


def test_every_keyed_product_goes_through_mul_grouped(monkeypatch):
    """The outer powers, the p_lam[g] of a _Powers memo and the terms of
    its apply are all multiplied by symfunc._mul_grouped."""
    from plethy import series, symfunc

    names = {
        series._outer_powers.__code__: "_outer_powers",
        _Powers.power.__code__: "_Powers.power",
        _Powers.apply.__code__: "_Powers.apply",
    }
    callers = set()
    real = symfunc._mul_grouped

    def counting(*args):
        callers.add(names.get(sys._getframe(1).f_code))
        return real(*args)

    monkeypatch.setattr(symfunc, "_mul_grouped", counting)
    monkeypatch.setattr(series, "_mul_grouped", counting)
    ctx = series.SeriesContext(6)
    ctx.get(("H", "lie"))
    ctx.get(("E", "lie2"))
    plethysm(h(3), p(1) + p(2), 6)
    assert {"_outer_powers", "_Powers.power", "_Powers.apply"} <= callers, callers


@settings(max_examples=60, deadline=None)
@given(symfunc_strategy(max_deg=5, max_terms=5), symfunc_strategy(max_deg=5, max_terms=5), scalar_strategy)
def test_unary_operators_match_reference(f, g, c):
    a = ref_terms(f)
    _agrees(f.scale(c), ref_scale(a, c))
    _agrees(f.scale(c.numerator), ref_scale(a, Fraction(c.numerator)))
    _agrees(f.omega(), ref_omega(a))
    _agrees(f.partial_p1(), ref_partial_p1(a))
    for n in range(6):
        _agrees(f.homogeneous_part(n), {lam: v for lam, v in a.items() if sum(lam) == n})
        _agrees(truncate(f, n), {lam: v for lam, v in a.items() if sum(lam) <= n})
    assert hall_inner(f, g) == ref_hall_inner(a, ref_terms(g))
    for lam, v in a.items():
        assert f.coeff(lam) == v


def test_canonical_form_of_constructors():
    for f in (SymFunc.zero(), SymFunc.one(), p((3, 1)), h(6), e(5), s((3, 2, 1))):
        assert_canonical(f)
    assert SymFunc({(1,): Fraction(2, 4), (2,): 0}) == SymFunc({(1,): Fraction(1, 2)})
    zero = h(3) - h(3)
    assert (zero._num, zero._den) == ({}, 1)
    assert h(2).scale(2) == p((1, 1)) + p(2)
    assert_canonical(h(2).scale(2))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        SymFunc({(1,): 0.1})
    with pytest.raises(TypeError):
        SymFunc({(1,): 2.0})
    with pytest.raises(TypeError):
        p(1).scale(0.1)
    with pytest.raises(TypeError):
        point_specialize(p(1), 0.5)
    with pytest.raises(ValueError):
        SymFunc.from_dict({"basis": "p", "terms": [{"partition": [1], "coeff": 0.1}]})


@pytest.mark.parametrize(
    "payload",
    [
        [1],
        "p",
        {"basis": "p"},
        {"basis": "p", "terms": {"partition": [1], "coeff": "1"}},
        {"basis": "p", "terms": [[1]]},
        {"basis": "p", "terms": [{"partition": [1]}]},
        {"basis": "p", "terms": [{"partition": 5, "coeff": "1"}]},
        {"basis": "p", "terms": [{"partition": ["1"], "coeff": "1"}]},
        {"basis": "p", "terms": [{"partition": [True], "coeff": "1"}]},
        {"basis": "p", "terms": [{"partition": [1, 2], "coeff": "1"}]},
        {"basis": "p", "terms": [{"partition": [1], "coeff": None}]},
        {"basis": "p", "terms": [{"partition": [1], "coeff": "x"}]},
        {"basis": "p", "terms": [{"partition": [1], "coeff": "1/0"}]},
    ],
)
def test_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValueError):
        SymFunc.from_dict(payload)
