"""The theorem tier of the identity registry: 56 published identities.

Each entry computes both sides of one identity independently and compares
them coefficient-for-coefficient per degree (and per length slot where the
statement carries the v marker); a failure here is a bug.  Importing this
module registers the entries with plethy.registry, in the order below,
which the registry does the first time a command asks for a theorem id or
for the whole list.  The two conjecture-tier scans stay in the registry, so
`conjecture` never compiles this module.  Rules that several entries share
are stated once: _degrees_equal is the per-degree comparison of two sides,
each COCHAIN, FILT-B and HODGE lie/lie2 pair is one factory body over the
family, its outer kind (H/E) and its generator (kappa/omega(kappa)) (the
four other pairs are two bodies each), _PSI maps each family to its weight
psi, _p1_recurrence is the restriction recurrence S_n = p_1 S_(n-1) +
(-1)^n c(n) of SIGMA-REC and TAU-REC, and BETA-POS scans its rows with the
registry's _rows_positive.  Each entry's reads names the SeriesContext
memo keys its body reads, by ctx.get with the same literal key or through
whitney, vh and the u and beta rows; _register adds the keys they are
built from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from .lie_family import Psi
from .partitions import mobius, partitions_of
from .registry import _Check, _register, _rows_positive
from .series import (
    Series,
    SeriesContext,
    p_sum_over,
    plethystic_inverse,
    series_plethysm,
)
from .symfunc import SymFunc, e, h, linear_sum, p, plethysm, s

# the weight psi of each family's template f_n = (1/n) sum over d | n of psi(d) p_d^(n/d)
_PSI = {"lie": Psi.mobius(), "conj": Psi.totient(), "lie2": Psi.two_adic()}


def _degrees_equal(check: _Check, lhs: Callable, rhs: Callable, start: int, cap: int) -> None:
    """lhs(n) = rhs(n) for the degrees start <= n <= cap, in order."""
    for n in range(start, cap + 1):
        check.eq(n, lhs(n), rhs(n))


def _p1n(n: int) -> SymFunc:
    return p((1,) * n)


def _p1_only(n: int) -> SymFunc:
    """The degree-n part of the series p_1: p_1 at degree 1, else 0."""
    return p(1) if n == 1 else SymFunc.zero()


def _zero(n: int) -> SymFunc:
    return SymFunc.zero()


def _two_powers(n: int) -> SymFunc:
    return p_sum_over(n, "parts_powers_of_two")


def _p2_p1(n: int) -> SymFunc:
    """p_2^(n/2) for even n, p_2^((n-1)/2) p_1 for odd n."""
    return p((2,) * (n // 2) + (1,) * (n % 2))


def _alt_outer(app: Series, n: int) -> SymFunc:
    """sum over r >= 1 of (-1)^(r-1) times the (n, r) slot."""
    return linear_sum((1 if r % 2 else -1, app.graded(n, r)) for r in range(1, n + 1))


def _pieces_sum(piece: Callable, n: int, start: int = 0, step: int = 1) -> SymFunc:
    """sum of piece(n, k) over k = start, start + step, ... below n."""
    return linear_sum((1, piece(n, k)) for k in range(start, n, step))


def _distinct_powers_sum(n: int) -> SymFunc:
    return linear_sum(
        ((-1) ** (len(lam) - 1), p(lam))
        for lam in partitions_of(n, "parts_powers_of_two")
        if len(set(lam)) == len(lam)
    )


def _odd_parts_sum(n: int, distinct: bool = False) -> SymFunc:
    return linear_sum(
        (1, p(lam))
        for lam in partitions_of(n)
        if all(part % 2 for part in lam) and (not distinct or len(set(lam)) == len(lam))
    )


# ---------------------------------------------------------------------------
# regular-representation decompositions and their inverses


def _plinv(outer: str, fam: str, gen: Callable):
    """outer[fam] = p_1, and fam is the plethystic inverse of sum of gen(n), n >= 1."""

    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        _degrees_equal(check, ctx.get((outer, fam)).coeff, _p1_only, 1, cap)
        # and the inverse computed from scratch matches the family
        inv = plethystic_inverse(Series(cap, {n: gen(n) for n in range(1, cap + 1)}))
        _degrees_equal(check, inv.coeff, ctx.get(fam).coeff, 1, cap)

    return fn


@_register(
    "THRALL",
    "symmetric powers of lie rebuild the regular representation",
    reads=[("brackets", "H", "lie", False)],
)
def _thrall(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "H", "lie", False)).coeff, _p1n, 0, cap)


_register(
    "CADOGAN",
    "alternating omega(lie) inverts the homogeneous series",
    reads=[("H", "lie_alt"), "lie_alt"],
)(_plinv("H", "lie_alt", h))


@_register("SOLOMON", "symmetric powers of conj give all partitions", reads=[("H", "conj")])
def _solomon(ctx, cap, check):
    _degrees_equal(check, ctx.get(("H", "conj")).coeff, p_sum_over, 1, cap)


@_register(
    "EXT-REG",
    "exterior powers of lie2 rebuild the regular representation",
    reads=[("brackets", "E", "lie2", False)],
)
def _ext_reg(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "E", "lie2", False)).coeff, _p1n, 0, cap)


_register(
    "PLINV-E",
    "alternating omega(lie2) inverts the elementary series",
    reads=[("E", "lie2_alt"), "lie2_alt"],
)(_plinv("E", "lie2_alt", e))


@_register(
    "SYM-LIE2",
    "symmetric powers of lie2 give the power-of-two classes",
    reads=[("H", "lie2")],
)
def _sym_lie2(ctx, cap, check):
    _degrees_equal(check, ctx.get(("H", "lie2")).coeff, _two_powers, 1, cap)


@_register(
    "ALT-E-LIE2",
    "alternating exterior sum of lie2: distinct two-power classes",
    reads=[("E", "lie2")],
)
def _alt_e_lie2(ctx, cap, check):
    _degrees_equal(check, partial(_alt_outer, ctx.get(("E", "lie2"))), _distinct_powers_sum, 1, cap)


@_register(
    "ALT-H-LIE",
    "alternating symmetric sum of lie collapses to two-row classes",
    reads=[("H", "lie")],
)
def _alt_h_lie(ctx, cap, check):
    lhs = partial(_alt_outer, ctx.get(("H", "lie")))
    _degrees_equal(check, lhs, lambda n: _p2_p1(n) if n % 2 else -_p2_p1(n), 1, cap)


@_register(
    "ALT-H-LIE-PROD",
    "signed bracket sum over lie equals (1+p1)/(1-p2)",
    reads=[("brackets", "H", "lie", True), ("E", "lie_alt")],
)
def _alt_h_lie_prod(ctx, cap, check):
    signed = ctx.get(("brackets", "H", "lie", True))
    appalt = ctx.get(("E", "lie_alt"))
    for n in range(1, cap + 1):
        check.eq(n, signed.coeff(n), _p2_p1(n))
        # middle member: omega(E[omega(lie) alternating])
        check.eq(n, appalt.coeff(n).omega(), _p2_p1(n), note="omega(E[lie_alt]) form")


@_register("EXT-LIE", "exterior powers of lie give (1-p2)/(1-p1)", reads=[("E", "lie")])
def _ext_lie(ctx, cap, check):
    def rhs(n):
        return _p1n(n) - (p(2) * _p1n(n - 2) if n >= 2 else SymFunc.zero())

    _degrees_equal(check, ctx.get(("E", "lie")).coeff, rhs, 1, cap)


@_register("EXT-CONJ", "exterior powers of conj give the odd classes", reads=[("E", "conj")])
def _ext_conj(ctx, cap, check):
    _degrees_equal(check, ctx.get(("E", "conj")).coeff, _odd_parts_sum, 1, cap)


@_register(
    "ALT-CONJ",
    "exterior powers of alternating omega(conj): distinct odd classes",
    reads=[("E", "conj_alt")],
)
def _alt_conj(ctx, cap, check):
    rhs = partial(_odd_parts_sum, distinct=True)
    _degrees_equal(check, ctx.get(("E", "conj_alt")).coeff, rhs, 1, cap)


@_register(
    "ACYC-LIE",
    "signed exterior bracket sum over lie vanishes (n >= 2)",
    reads=[("brackets", "E", "lie", True)],
)
def _acyc_lie(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "E", "lie", True)).coeff, _zero, 2, cap)


@_register(
    "ACYC-LIE2",
    "signed symmetric bracket sum over lie2 vanishes (n >= 2)",
    reads=[("brackets", "H", "lie2", True)],
)
def _acyc_lie2(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "H", "lie2", True)).coeff, _zero, 2, cap)


@_register(
    "TOTALCOH-LIE",
    "total exterior bracket sum over lie is 2 e2 p1^(n-2)",
    reads=[("brackets", "E", "lie", False)],
)
def _totalcoh_lie(ctx, cap, check):
    lhs = ctx.get(("brackets", "E", "lie", False)).coeff
    _degrees_equal(check, lhs, lambda n: (e(2) * _p1n(n - 2)).scale(2), 2, cap)


@_register(
    "TOTALCOH-LIE2",
    "total symmetric bracket sum over lie2: two-power classes",
    reads=[("brackets", "H", "lie2", False)],
)
def _totalcoh_lie2(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "H", "lie2", False)).coeff, _two_powers, 2, cap)


# ---------------------------------------------------------------------------
# the two equivalence chains: each lie link and its lie2 counterpart swap the
# family, the outer kind (H <-> E) and the generator (kappa <-> omega(kappa))


def _cochain(outer: str, fam: str, gen: str, dual: str):
    """gen and dual are the memo keys of the generators, kappa and omega_kappa."""

    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        # the signed sum is -gen_n; sign normalization follows the +gen
        # identity it is equivalent to
        lhs = ctx.get((outer + "pm", fam)).coeff
        _degrees_equal(check, lhs, lambda n: -ctx.get(gen).coeff(n), 2, cap)
        # omega-twisted Lefschetz form with (-1)^(n-1)
        app = ctx.get((outer, fam))
        for n in range(2, cap + 1):
            acc = linear_sum(((-1) ** (i % 2), app.graded(n, n - i).omega()) for i in range(n + 1))
            rhs = ctx.get(dual).coeff(n).scale((-1) ** ((n - 1) % 2))
            check.eq(n, acc, rhs, note="omega-twisted form")

    return fn


def _filt_b(fam: str, gen: str):
    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        sums = ctx.iterate_generator(ctx.get(gen))
        if sums[-1] != sums[-2]:
            check.fail(cap, "iteration did not stabilize at the cap")
            return
        _degrees_equal(check, ctx.get(fam).coeff, sums[-1].coeff, 0, cap)

    return fn


def _e_delta(ctx: SeriesContext, n: int) -> SymFunc:
    """sum of (-1)^k p1^(n-k) e_k, the e-counterpart of ctx.delta(n)."""
    return linear_sum(((-1) ** (k % 2), _p1n(n - k) * e(k)) for k in range(n + 1))


def _hodge(outer: str, fam: str, gen: Callable, name: str, closed: Callable):
    """outer[fam]|_n = closed(ctx, n) = sum of (-1)^k p1^(n-k) gen_k, and the
    same as the product of (1-p1)^-1 and name^+- = sum of (-1)^k gen_k."""

    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        app = ctx.get((outer, fam))
        geom = Series(cap, {n: _p1n(n) for n in range(cap + 1)})
        signed = Series(cap, {n: gen(n).scale((-1) ** (n % 2)) for n in range(cap + 1)})
        middle = geom * signed
        for n in range(2, cap + 1):
            check.eq(n, app.coeff(n), closed(ctx, n))
            check.eq(n, app.coeff(n), middle.coeff(n), note=f"(1-p1)^-1 {name}^+- form")

    return fn


@_register("EQUIV-PBW-SYM", "(H-1)[lie] = sum of p1^n", reads=[("H", "lie")])
def _equiv_pbw_sym(ctx, cap, check):
    _degrees_equal(check, ctx.get(("H", "lie")).coeff, _p1n, 1, cap)


@_register(
    "EQUIV-PBW-CADOGAN",
    "(H-1) inverse is the alternating omega(lie)",
    reads=[("brackets", "H", "lie_alt", False)],
)
def _equiv_pbw_cadogan(ctx, cap, check):
    _degrees_equal(check, ctx.get(("brackets", "H", "lie_alt", False)).coeff, _p1_only, 1, cap)


@_register("EQUIV-PBW-ALTEXT", "alternating e-sum over lie is p1", reads=[("E", "lie")])
def _equiv_pbw_altext(ctx, cap, check):
    _degrees_equal(check, partial(_alt_outer, ctx.get(("E", "lie"))), _p1_only, 1, cap)


@_register(
    "EQUIV-PBW-ALTEXT-GE2",
    "alternating e-sum over lie_(>=2) is the standard representation",
    reads=[("E", "lie_ge2"), "kappa"],
)
def _equiv_pbw_altext_ge2(ctx, cap, check):
    lhs = partial(_alt_outer, ctx.get(("E", "lie_ge2")))
    _degrees_equal(check, lhs, ctx.get("kappa").coeff, 2, cap)


_register(
    "EQUIV-PBW-COCHAIN",
    "signed e-sum over lie_(>=2) collapses to one irreducible",
    reads=[("Epm", "lie_ge2"), ("E", "lie_ge2"), "kappa", "omega_kappa"],
)(_cochain("E", "lie_ge2", "kappa", "omega_kappa"))


@_register(
    "EQUIV-PBW-FILT-A",
    "lie_(>=2) = lie composed with the standard-rep series",
    reads=["lie", "lie_ge2", "kappa"],
)
def _equiv_pbw_filt_a(ctx, cap, check):
    rhs = series_plethysm(ctx.get("lie"), ctx.get("kappa"))
    _degrees_equal(check, ctx.get("lie_ge2").coeff, rhs.coeff, 0, cap)


_register(
    "EQUIV-PBW-FILT-B",
    "lie_(>=2) = kappa + kappa[kappa] + ... (stabilized)",
    reads=["lie_ge2", "kappa"],
)(_filt_b("lie_ge2", "kappa"))
_register(
    "EQUIV-PBW-HODGE",
    "(H-1)[lie_(>=2)] = alternating p1^(n-k) e_k",
    reads=[("H", "lie_ge2")],
)(_hodge("H", "lie_ge2", e, "E", _e_delta))


@_register("EQUIV-LIE2-EXT", "(E-1)[lie2] = sum of p1^n", reads=[("E", "lie2")])
def _equiv_lie2_ext(ctx, cap, check):
    _degrees_equal(check, ctx.get(("E", "lie2")).coeff, _p1n, 1, cap)


@_register("EQUIV-LIE2-PLINV", "alternating h-sum over lie2 is p1", reads=[("H", "lie2")])
def _equiv_lie2_plinv(ctx, cap, check):
    _degrees_equal(check, partial(_alt_outer, ctx.get(("H", "lie2"))), _p1_only, 1, cap)


@_register(
    "EQUIV-LIE2-GE2",
    "alternating h-sum over lie2_(>=2) is omega(kappa)",
    reads=[("H", "lie2_ge2"), "omega_kappa"],
)
def _equiv_lie2_ge2(ctx, cap, check):
    lhs = partial(_alt_outer, ctx.get(("H", "lie2_ge2")))
    _degrees_equal(check, lhs, ctx.get("omega_kappa").coeff, 2, cap)


_register(
    "EQUIV-LIE2-COCHAIN",
    "signed h-sum over lie2_(>=2) collapses to one irreducible",
    reads=[("Hpm", "lie2_ge2"), ("H", "lie2_ge2"), "omega_kappa", "kappa"],
)(_cochain("H", "lie2_ge2", "omega_kappa", "kappa"))


@_register(
    "EQUIV-LIE2-FILT-A",
    "lie2_(>=2) = lie2 composed with omega(kappa)",
    reads=["lie2", "lie2_ge2", "omega_kappa"],
)
def _equiv_lie2_filt_a(ctx, cap, check):
    rhs = series_plethysm(ctx.get("lie2"), ctx.get("omega_kappa"))
    _degrees_equal(check, ctx.get("lie2_ge2").coeff, rhs.coeff, 0, cap)


_register(
    "EQUIV-LIE2-FILT-B",
    "lie2_(>=2) = omega(kappa) iterated (stabilized)",
    reads=["lie2_ge2", "omega_kappa"],
)(_filt_b("lie2_ge2", "omega_kappa"))
_register(
    "EQUIV-LIE2-HODGE",
    "(E-1)[lie2_(>=2)] = alternating p1^(n-k) h_k",
    reads=[("E", "lie2_ge2")],
)(_hodge("E", "lie2_ge2", h, "H", lambda ctx, n: ctx.delta(n)))


@_register(
    "SU1-LOG",
    "log of the weighted products recovers the family and its twist",
    reads=[key for name in _PSI for key in (name, name + "_alt")],
)
def _su1_log(ctx, cap, check):
    # log prod (1 - p_d)^(-psi(d)/d) = sum of f_n, and
    # log prod (1 + p_d)^(psi(d)/d) = sum of (-1)^(n-1) omega(f_n)
    for name, psi in _PSI.items():
        plain: dict[int, SymFunc] = {}
        alt: dict[int, SymFunc] = {}
        for d in range(1, cap + 1):
            weight = Fraction(psi(d), d)
            if not weight:
                continue
            for j in range(1, cap // d + 1):
                term = p((d,) * j).scale(weight * Fraction(1, j))
                n = d * j
                plain[n] = plain.get(n, SymFunc.zero()) + term
                alt[n] = alt.get(n, SymFunc.zero()) + (term if j % 2 else -term)
        fam = ctx.get(name)
        twisted = ctx.get(name + "_alt")
        for n in range(1, cap + 1):
            check.eq(n, plain.get(n, SymFunc.zero()), fam.coeff(n), note=f"{name} log form")
            check.eq(
                n, alt.get(n, SymFunc.zero()), twisted.coeff(n), note=f"{name} alternating log form"
            )


# ---------------------------------------------------------------------------
# the product meta-identities


def _meta_forms(fam: str) -> tuple:
    """(outer power, bracket sum, product form), as memo keys, for each outer
    power of fam: it equals its bracket sum (omega of the signed one for the
    alternating powers, None for the signed operators) and its product form."""
    w = _PSI[fam].name
    return (
        (("H", fam), ("brackets", "H", fam, False), ("product", w, "sym")),
        (("E", fam), ("brackets", "E", fam, False), ("product", w, "ext")),
        (("H", fam + "_alt"), ("brackets", "E", fam, True), ("product", w, "alt_ext")),
        (("E", fam + "_alt"), ("brackets", "H", fam, True), ("product", w, "alt_sym")),
        (("Epm", fam), None, ("product", w, "epm")),
        (("Hpm", fam), None, ("product", w, "hpm")),
    )


def _meta_products(fam: str):
    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        for outer, brackets, form in _meta_forms(fam):
            lhs = ctx.get(outer)
            if brackets:
                sums = ctx.get(brackets)
                check.eq_graded(lhs, sums.map(lambda f: f.omega()) if brackets[3] else sums)
            check.eq_graded(lhs, ctx.get(form))

    return fn


for _fam, _psi in _PSI.items():
    _register(
        f"META-PRODUCTS-{_psi.name.upper().replace('_', '')}",
        f"product generating functions for psi = {_psi.name}, v-graded",
        reads=[key for keys in _meta_forms(_fam) for key in keys if key],
    )(_meta_products(_fam))


def _metage2(fam: str):
    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        # H(v)[F>=2] = E(-v) H(v)[F] and E^+-(v)[F>=2] H(v)[F] = H(v), then E and H swapped
        for outer, other, gen, dual in (("H", "E", e, h), ("E", "H", h, e)):
            F = ctx.get((outer, fam))
            signed = Series(cap, graded={(k, k): gen(k).scale((-1) ** k) for k in range(cap + 1)})
            plain = Series(cap, graded={(k, k): dual(k) for k in range(cap + 1)})
            check.eq_graded(ctx.get((outer, fam + "_ge2")), signed * F)
            check.eq_graded(ctx.get((other + "pm", fam + "_ge2")) * F, plain)

    return fn


for _fam in ("lie", "lie2"):
    _register(
        f"METAGE2-{_fam.upper()}",
        f"degree >= 2 restriction identities for {_fam}, v-graded",
        reads=[(k, f) for k in ("H", "E") for f in (_fam, _fam + "_ge2")]
        + [("Hpm", _fam + "_ge2"), ("Epm", _fam + "_ge2")],
    )(_metage2(_fam))


@_register(
    "HE-UNIT",
    "H(t) E(-t) = 1 plus the reciprocal-series lemmas on lie and lie2",
    reads=[("H", "lie"), ("E", "lie"), ("Epm", "lie"), ("H", "lie_alt")]
    + [("E", "lie2"), ("H", "lie2"), ("Hpm", "lie2"), ("E", "lie2_alt")],
)
def _he_unit(ctx, cap, check):
    for n in range(1, cap + 1):
        acc = linear_sum(((-1) ** ((n - k) % 2), h(k) * e(n - k)) for k in range(n + 1))
        check.eq(n, acc, SymFunc.zero())
    one = Series(cap, {0: SymFunc.one()})

    # H[F] = G  <=>  E^+-[F] = 1/G  <=>  alternating e-sum = (G-1)/G on lie,
    # E[F] = K  <=>  H^+-[F] = 1/K  <=>  alternating h-sum = (K-1)/K on lie2
    for fam, outer, other, name in (("lie", "H", "E", "G"), ("lie2", "E", "H", "K")):
        G = ctx.get((outer, fam)).drop_grading()
        Ginv = G.reciprocal()
        pm = ctx.get((other + "pm", fam))
        for n in range(cap + 1):
            check.eq(n, pm.coeff(n), Ginv.coeff(n), note=f"{other}^+-[{fam}] = 1/{outer}[{fam}]")
        alt_target = (G - one) * Ginv
        alt = ctx.get((other, fam))
        for n in range(1, cap + 1):
            check.eq(n, _alt_outer(alt, n), alt_target.coeff(n), note=f"({name}-1)/{name} form")

    # sign-twist lemma: K[-p1] = omega(K)^+- and the induced equivalences
    for fam, outer in (("lie", "H"), ("lie2", "E")):
        K2 = ctx.get((outer, fam + "_alt")).drop_grading()
        omega_pm = K2.twist()
        sub = plethysm(K2.total(), -p(1), cap)
        for n in range(cap + 1):
            check.eq(n, sub.homogeneous_part(n), omega_pm.coeff(n), note=f"{fam}: K[-p1]")
        base = ctx.get((outer, fam)).drop_grading()
        prod = base * omega_pm
        for n in range(cap + 1):
            check.eq(n, prod.coeff(n), one.coeff(n), note=f"{fam}: {outer}[F] * omega(K)^+- = 1")


@_register(
    "HODGE-FILT",
    "the two split decompositions over lie and lie2 agree",
    reads=[("H", "lie_ge2"), ("E", "lie_ge2"), ("H", "lie2_ge2"), ("E", "lie2_ge2"), "omega_kappa"],
)
def _hodge_filt(ctx, cap, check):
    Hge = ctx.get(("H", "lie_ge2"))
    Ege2 = ctx.get(("E", "lie2_ge2"))
    for n in range(2, cap + 1):
        mid = ctx.delta(n)
        check.eq(n, Hge.coeff(n).omega(), mid, note="omega(h-sum over lie_(>=2))")
        check.eq(n, Ege2.coeff(n), mid, note="e-sum over lie2_(>=2)")
    Ege = ctx.get(("E", "lie_ge2"))
    Hge2 = ctx.get(("H", "lie2_ge2"))
    for n in range(2, cap + 1):
        mid = ctx.get("omega_kappa").coeff(n)  # s_(2,1^(n-2))
        check.eq(n, _alt_outer(Ege, n).omega(), mid, note="alternating omega(e-sum)")
        check.eq(n, _alt_outer(Hge2, n), mid, note="alternating h-sum over lie2_(>=2)")


# ---------------------------------------------------------------------------
# Whitney-homology shaped identities

# ctx.whitney reads the Mobius product E(v)[lie], ctx.vh the two-adic H(v)[lie2]
_WHITNEY = [("product", "mobius", "ext")]
_VH = [("product", "two_adic", "sym")]

@_register(
    "LEHRER",
    "total graded invariant of the partition lattice is 2 h2 p1^(n-2)",
    reads=_WHITNEY,
)
def _lehrer(ctx, cap, check):
    lhs = partial(_pieces_sum, ctx.whitney)
    _degrees_equal(check, lhs, lambda n: (h(2) * _p1n(n - 2)).scale(2), 2, cap)


@_register("EVENODD", "odd and even graded pieces agree over lie", reads=_WHITNEY)
def _evenodd(ctx, cap, check):
    odd = partial(_pieces_sum, ctx.whitney, start=1, step=2)
    _degrees_equal(check, odd, partial(_pieces_sum, ctx.whitney, step=2), 2, cap)


@_register(
    "HL-REG",
    "odd pieces plus sign-twisted even pieces give the regular rep",
    reads=_WHITNEY,
)
def _hl_reg(ctx, cap, check):
    for n in range(2, cap + 1):
        odd = _pieces_sum(ctx.whitney, n, 1, 2)
        even = _pieces_sum(ctx.whitney, n, 0, 2)
        check.eq(n, odd + even.omega(), _p1n(n))


@_register(
    "IND-CONF",
    "total invariant at n+1 is the induction of the one at n",
    reads=_WHITNEY,
    min_cap=3,
)
def _ind_conf(ctx, cap, check):
    prev = _pieces_sum(ctx.whitney, 2)
    for n in range(3, cap + 1):
        cur = _pieces_sum(ctx.whitney, n)
        check.eq(n, cur, p(1) * prev)
        prev = cur


@_register("LEHRER-LIE2", "total symmetric pieces of lie2 give the two-power classes", reads=_VH)
def _lehrer_lie2(ctx, cap, check):
    _degrees_equal(check, partial(_pieces_sum, ctx.vh), _two_powers, 2, cap)


@_register(
    "EVENODD-LIE2",
    "odd/even vh pieces agree and give half the two-power classes",
    reads=_VH,
)
def _evenodd_lie2(ctx, cap, check):
    for n in range(2, cap + 1):
        odd = _pieces_sum(ctx.vh, n, 1, 2)
        check.eq(n, odd, _pieces_sum(ctx.vh, n, 0, 2))
        half = _two_powers(n).scale(Fraction(1, 2))
        check.eq(n, odd, half, note="half-sum form")


@_register("HL-LIE2", "odd vh plus its sign twist: two-power classes of even corank", reads=_VH)
def _hl_lie2(ctx, cap, check):
    for n in range(2, cap + 1):
        odd = _pieces_sum(ctx.vh, n, 1, 2)
        rhs = linear_sum(
            (1, p(lam))
            for lam in partitions_of(n, "parts_powers_of_two")
            if (n - len(lam)) % 2 == 0
        )
        check.eq(n, odd + odd.omega(), rhs)


@_register(
    "IND-LIE2",
    "total vh at odd degree is the induction from one below",
    reads=_VH,
    min_cap=3,
)
def _ind_lie2(ctx, cap, check):
    for n in range(3, cap + 1, 2):
        check.eq(n, _pieces_sum(ctx.vh, n), p(1) * _pieces_sum(ctx.vh, n - 1))


# ---------------------------------------------------------------------------
# power-sum transfer identities


def _conj_from(fam: str, step: int):
    """conj = sum of p_k[fam] over k = 1, 1 + step, ...; fam is the mobius-weighted inverse."""

    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        _degrees_equal(check, ctx.get(("conj_from", fam)).coeff, ctx.get("conj").coeff, 1, cap)
        pk = ctx.get(("p_k", "conj"))
        back = linear_sum((mobius(k), pk[k - 1]) for k in range(1, cap + 1, step))
        for n in range(1, cap + 1):
            check.eq(n, back.homogeneous_part(n), ctx.get(fam).coeff(n), note="inverse direction")

    return fn


_register(
    "CONJ-FROM-LIE",
    "conj = sum of p_k[lie]; lie = mobius-weighted inverse",
    reads=[("conj_from", "lie"), "lie", ("p_k", "conj"), "conj"],
)(_conj_from("lie", 1))
_register(
    "CONJ-FROM-LIE2",
    "conj = sum of p_(2k-1)[lie2]; odd-mobius inverse",
    reads=[("conj_from", "lie2"), "lie2", ("p_k", "conj"), "conj"],
)(_conj_from("lie2", 2))


@_register(
    "LIE2-FROM-LIE",
    "lie2 = sum of lie[p_(2^j)]; lie = lie2 - lie2[p_2]",
    reads=["lie", "lie2"],
)
def _lie2_from_lie(ctx, cap, check):
    lie_tot = ctx.get("lie").total()
    # the powers of two 2^j <= cap are the j below cap's bit length
    fwd = linear_sum((1, plethysm(lie_tot, p(1 << j), cap)) for j in range(cap.bit_length()))
    _degrees_equal(check, fwd.homogeneous_part, ctx.get("lie2").coeff, 1, cap)
    lie2_tot = ctx.get("lie2").total()
    bwd = lie2_tot - plethysm(lie2_tot, p(2), cap)
    for n in range(1, cap + 1):
        check.eq(n, bwd.homogeneous_part(n), ctx.get("lie").coeff(n), note="inverse direction")


# ---------------------------------------------------------------------------
# restriction recurrences


def _p1_recurrence(check: _Check, app: Series, c: Callable, cap: int, note: str = "") -> None:
    """S_n = p_1 S_(n-1) + (-1)^n c(n) for the degree-n parts S_n of app, S_0 = 1."""
    prev = SymFunc.one()
    for n in range(1, cap + 1):
        cur = app.coeff(n)
        check.eq(n, cur, p(1) * prev + c(n).scale((-1) ** (n % 2)), note=note)
        prev = cur


@_register(
    "SIGMA-REC",
    "h-sum over lie2_(>=2) satisfies the sigma recurrence",
    reads=[("H", "lie2_ge2"), ("H", "lie_ge2")],
)
def _sigma_rec(ctx, cap, check):
    _p1_recurrence(check, ctx.get(("H", "lie2_ge2")), ctx.sigma, cap)
    # lie analogue: the correction term is just e_n
    _p1_recurrence(check, ctx.get(("H", "lie_ge2")), e, cap, note="lie side")


@_register(
    "TAU-REC",
    "e-sum over lie_(>=2) satisfies the tau recurrence",
    reads=[("E", "lie_ge2"), ("E", "lie2_ge2")],
)
def _tau_rec(ctx, cap, check):
    _p1_recurrence(check, ctx.get(("E", "lie_ge2")), ctx.tau, cap)
    # lie2 analogue: the correction term is h_n (injective-words recurrence)
    _p1_recurrence(check, ctx.get(("E", "lie2_ge2")), h, cap, note="lie2 side")


def _restrict_rec(fam: str):
    def fn(ctx: SeriesContext, cap: int, check: _Check) -> None:
        for kind in ("H", "E"):
            app = ctx.get((kind, fam))
            for n in range(1, cap + 1):
                for r in range(0, n + 1):
                    lhs = app.graded(n, r).partial_p1()
                    rhs = app.graded(n - 1, r - 1) if r >= 1 else SymFunc.zero()
                    rhs = rhs + p(1) * app.graded(n - 1, r).partial_p1()
                    check.eq(n, lhs, rhs, note=f"{kind} r={r}")
            appg = ctx.get((kind, fam + "_ge2"))
            for n in range(2, cap + 1):
                for r in range(1, n):
                    lhs = appg.graded(n, r).partial_p1()
                    inner = appg.graded(n - 1, r).partial_p1() + appg.graded(n - 2, r - 1)
                    check.eq(n, lhs, p(1) * inner, note=f"{kind} ge2 r={r}")

    return fn


for _fam in ("lie", "lie2"):
    _register(
        f"RESTRICT-REC-{_fam.upper()}",
        f"restriction recurrences for symmetric/exterior pieces of {_fam}",
        reads=[(k, f) for k in ("H", "E") for f in (_fam, _fam + "_ge2")],
    )(_restrict_rec(_fam))


# ---------------------------------------------------------------------------
# closed forms and the beta positivity theorem


@_register(
    "U-CLOSED",
    "closed forms of the first four truncated alternating sums",
    reads=["kappa", ("walk", "two_adic", -1)],
    min_cap=4,
)
def _u_closed(ctx, cap, check):
    def hh(k):
        return h(k) if k >= 0 else SymFunc.zero()

    s21 = s((2, 1))
    s211 = s((2, 1, 1))
    s22 = s((2, 2))
    s42 = s((4, 2))
    s222 = s((2, 2, 2))
    kappa = ctx.get("kappa")
    for n in range(2, cap + 1):
        row = ctx.u_row(n)
        check.eq(n, row[0], h(n), note="k=0")
        check.eq(n, row[1], h(2) * h(n - 2) - h(n), note="k=1")
        if n >= 4:
            # s_(n-1,1) is kappa_n; s_(n-2,2) = h_(n-2) h_2 - h_(n-1) h_1 (Jacobi-Trudi)
            s_n1 = kappa.coeff(n)
            s_n2 = h(n - 2) * h(2) - h(n - 1) * h(1)
            rhs2 = hh(n - 3) * s21 - s_n1 - s_n2 + hh(n - 4) * (h(4) + s22)
            check.eq(n, row[2], rhs2, note="k=2")
            rhs3 = (
                hh(n - 4) * s211
                + s21 * (hh(n - 5) * h(2) - hh(n - 3))
                + hh(n - 6) * (h(6) + s42 + s222)
                + s_n1
                + s_n2
            )
            check.eq(n, row[3], rhs3, note="k=3")


@_register(
    "BETA-POS",
    "truncated alternating whitney sums are Schur-positive",
    reads=[("walk", "mobius", 1)],
)
def _beta_pos(ctx, cap, check):
    _rows_positive(check, "beta", ctx.beta_row, cap)

