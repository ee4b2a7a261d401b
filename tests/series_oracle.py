"""Reference series constructions for the tests.

These are the sequential forms plethy used before the series layer stopped
recomputing and started working on keyed values: product_form convolves one
SymFunc factor per m with Fraction-valued v-polynomials, plethystic_inverse
recomposes the whole partial inverse with G at every degree, the Newton
recursion in the length (plethy runs the exponential recursion in the
degree on packed ints) and the Series product multiply one pair of
SymFuncs at a time, bracket_sum multiplies out each partition's bracket on
its own, and u and beta_rank sum their k + 1 signed pieces at once, not as
running sums, with vh and whitney read off this module's own Newton
recursion, not off the product formulas.  They share no expansion code with plethy.series: every
product here is SymFunc.__mul__, never the keyed mul_sum kernel, so each
checks the other.

The last section holds what only the tests read: a single bracket H_lam[Q]
or E_lam[Q], and the paper objects e_k[lie2_(>=2)], h_k[lie_(>=2)] and the
family series of a psi, read off a SeriesContext.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from conftest import truncate
from plethy.lie_family import f_from_psi
from plethy.partitions import divisors, multiplicities, partitions_of
from plethy.series import Series
from plethy.symfunc import SymFunc, e, h, linear_sum, p, plethysm

# -- v-polynomials with rational coefficients, stored as coefficient tuples


def _vp_trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _vp_add(a, b):
    n = max(len(a), len(b))
    return _vp_trim(
        [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
    )


def _vp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _vp_trim(out)


def _vp_scale(a, c):
    c = Fraction(c)
    return _vp_trim([x * c for x in a])


def _vp_sub_negv(a):
    """g(v) -> g(-v)."""
    return _vp_trim([(-x if i % 2 else x) for i, x in enumerate(a)])


def _vp_binom(g, k: int):
    """binom(g, k) = g(g-1)...(g-k+1)/k! as a polynomial in v."""
    out = (Fraction(1),)
    for i in range(k):
        out = _vp_mul(out, _vp_add(g, (Fraction(-i),)))
    return _vp_scale(out, Fraction(1, factorial(k)))


def _psi_poly(psi, m: int):
    """f_m as a polynomial in v: coefficient of v^(m/d) is psi(d)/m."""
    coeffs = [Fraction(0)] * (m + 1)
    for d in divisors(m):
        coeffs[m // d] += Fraction(psi(d), m)
    return _vp_trim(coeffs)


PRODUCT_VARIANTS = {
    # variant: (sign inside the base 1 + sign*p_m, exponent builder)
    "sym": (-1, lambda f: _vp_scale(f, -1)),  # (1-p_m)^(-f_m(v))
    "ext": (-1, lambda f: _vp_sub_negv(f)),  # (1-p_m)^(f_m(-v))
    "alt_ext": (1, lambda f: f),  # (1+p_m)^(f_m(v))
    "alt_sym": (1, lambda f: _vp_scale(_vp_sub_negv(f), -1)),  # (1+p_m)^(-f_m(-v))
    "epm": (-1, lambda f: f),  # (1-p_m)^(f_m(v))
    "hpm": (-1, lambda f: _vp_scale(_vp_sub_negv(f), -1)),  # (1-p_m)^(-f_m(-v))
}


def product_form(psi, variant: str, cap: int) -> Series:
    """prod over m of (1 +- p_m)^(+-f_m(+-v)), multiplied out factor by factor."""
    try:
        inner_sign, expo = PRODUCT_VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown product variant {variant!r}") from None
    graded: dict[tuple[int, int], SymFunc] = {(0, 0): SymFunc.one()}
    for m in range(1, cap + 1):
        g = expo(_psi_poly(psi, m))
        factor: dict[tuple[int, int], SymFunc] = {}
        for k in range(cap // m + 1):
            binom = _vp_binom(g, k)
            mono = p((m,) * k) if k else SymFunc.one()
            if inner_sign == -1 and k % 2:
                mono = -mono
            for j, cv in enumerate(binom):
                if cv:
                    key = (m * k, j)
                    factor[key] = factor.get(key, SymFunc.zero()) + mono.scale(cv)
        new: dict[tuple[int, int], SymFunc] = {}
        for (n1, r1), f1 in graded.items():
            for (n2, r2), f2 in factor.items():
                if n1 + n2 > cap:
                    continue
                key = (n1 + n2, r1 + r2)
                prod = f1 * f2
                if not prod:
                    continue
                new[key] = new.get(key, SymFunc.zero()) + prod
        graded = {key: f for key, f in new.items() if f}
    return Series(cap, graded=graded)


def plethystic_inverse(G: Series, cap: int | None = None) -> Series:
    """F with F o G = p_1, recomposing F_1 + ... + F_(n-1) with G at every n."""
    if cap is None:
        cap = G.cap
    g1 = G.coeff(1)
    c = g1.coeff((1,))
    if not c or g1 != p(1).scale(c):
        raise ValueError("plethystic inverse needs an invertible degree-1 term c*p_1")
    gtot = G.total()
    acc = SymFunc.zero()  # F_1 + ... + F_{n-1}
    for n in range(1, cap + 1):
        want = p(1) if n == 1 else SymFunc.zero()
        have = plethysm(acc, gtot, n).homogeneous_part(n) if acc else SymFunc.zero()
        resid = want - have
        # resid = F_n[c * p_1], which scales p_lam by c^l(lam); undo that
        fn = SymFunc({lam: v / c ** len(lam) for lam, v in resid.items()})
        acc = acc + fn
    return Series(cap, acc.homogeneous_parts())


def outer_powers(base: str, F: Series, cap: int) -> list[SymFunc]:
    """[x_0[F], ..., x_cap[F]], x in {h, e}, by the Newton recursion
    r*x_r = sum over k of (+-) p_k[F] x_(r-k), one truncated product at a time."""
    tot = F.total()
    pk = {k: plethysm(p(k), tot, cap) for k in range(1, cap + 1)}
    out = [SymFunc.one()]
    for r in range(1, cap + 1):
        acc = SymFunc.zero()
        for k in range(1, r + 1):
            term = truncate(pk[k] * out[r - k], cap)
            if base == "e" and k % 2 == 0:
                term = -term
            acc = acc + term
        out.append(acc.scale(Fraction(1, r)))
    return out


def apply_series(kind: str, F: Series) -> Series:
    """H or E of F with slot (n, r) the degree-n part of x_r[F]."""
    graded: dict[tuple[int, int], SymFunc] = {}
    for r, fr in enumerate(outer_powers(kind.lower(), F, F.cap)):
        for n in fr.degrees():
            graded[(n, r)] = fr.homogeneous_part(n)
    return Series(F.cap, graded=graded)


def negate_odd_lengths(A: Series) -> Series:
    """A(-v), so H gives Hpm and E gives Epm."""
    graded = {(n, r): A.graded(n, r).scale((-1) ** r) for n, r in A.graded_keys()}
    return Series(A.cap, graded=graded)


def bracket_sum(kind: str, Q: Series, sign=None) -> Series:
    """sum over partitions lam of v^l(lam) * (sign) * H_lam[Q] or E_lam[Q],
    each bracket multiplied out on its own."""
    base = h if kind == "H" else e
    factors: dict[tuple[int, int], SymFunc] = {}
    graded: dict[tuple[int, int], SymFunc] = {}
    for n in range(Q.cap + 1):
        for lam in partitions_of(n):
            f = SymFunc.one()
            for part, m in multiplicities(lam).items():
                if (part, m) not in factors:
                    factors[part, m] = plethysm(base(m), Q.coeff(part))
                f = f * factors[part, m]
            if sign is not None:
                f = f.scale(sign(lam))
            key = (n, len(lam))
            graded[key] = graded.get(key, SymFunc.zero()) + f
    return Series(Q.cap, graded=graded)


def series_mul(A: Series, B: Series) -> Series:
    """A * B slot by slot: (n1, r1) times (n2, r2) lands in (n1 + n2, r1 + r2)."""
    cap = A.cap
    graded: dict[tuple[int, int], SymFunc] = {}
    for n1, r1 in A.graded_keys():
        for n2, r2 in B.graded_keys():
            if n1 + n2 <= cap:
                key = (n1 + n2, r1 + r2)
                prod = A.graded(n1, r1) * B.graded(n2, r2)
                graded[key] = graded.get(key, SymFunc.zero()) + prod
    return Series(cap, graded=graded)


def reciprocal(A: Series) -> Series:
    """1/A for constant term 1, one degree at a time."""
    inv = [SymFunc.one()]
    for n in range(1, A.cap + 1):
        acc = SymFunc.zero()
        for k in range(1, n + 1):
            acc = acc + A.coeff(k) * inv[n - k]
        inv.append(-acc)
    return Series(A.cap, inv)


@lru_cache(maxsize=None)
def newton_slots(ctx, kind: str, name: str) -> Series:
    """apply_series above on ctx's named family, once per (ctx, kind, name)."""
    return apply_series(kind, ctx.get(name))


def vh(ctx, n: int, k: int) -> SymFunc:
    """h_(n-k)[lie2]|_n from the Newton slots of H[lie2]."""
    return newton_slots(ctx, "H", "lie2").graded(n, n - k)


def whitney(ctx, n: int, k: int) -> SymFunc:
    """omega(e_(n-k)[lie]|_n) from the Newton slots of E[lie]."""
    return newton_slots(ctx, "E", "lie").graded(n, n - k).omega()


def u(ctx, n: int, k: int) -> SymFunc:
    """vh(n, k) - vh(n, k-1) + ... +- vh(n, 0), as one alternating sum."""
    return linear_sum(((-1) ** ((k - j) % 2), vh(ctx, n, j)) for j in range(k + 1))


def beta_rank(ctx, n: int, k: int) -> SymFunc:
    """whitney(n, k) - whitney(n, k-1) + ... +- whitney(n, 0), as one alternating sum."""
    return linear_sum(((-1) ** ((k - j) % 2), whitney(ctx, n, j)) for j in range(k + 1))


# -- single brackets and named pieces, read off a SeriesContext


def higher_bracket(kind: str, lam: tuple, Q: Series) -> SymFunc:
    """H_lam[Q] or E_lam[Q]: product over part values i of x_{m_i}[q_i]."""
    if kind not in ("H", "E"):
        raise ValueError("kind must be 'H' or 'E'")
    if sum(lam) > Q.cap:
        raise IndexError(f"|lam| = {sum(lam)} exceeds series cap {Q.cap}")
    base = h if kind == "H" else e
    out = SymFunc.one()
    for part, m in multiplicities(lam).items():
        out = out * plethysm(base(m), Q.coeff(part))
        if not out:
            break
    return out


def delta_part(ctx, n: int, k: int) -> SymFunc:
    """e_k[lie2_(>=2)]|_n."""
    return ctx.get(("E", "lie2_ge2")).graded(n, k)


def hodge_part(ctx, n: int, k: int) -> SymFunc:
    """h_k[lie_(>=2)]|_n."""
    return ctx.get(("H", "lie_ge2")).graded(n, k)


def psi_family(ctx, psi) -> Series:
    """The series of f_from_psi(psi, n), 1 <= n <= ctx.cap."""
    return Series(ctx.cap, {n: f_from_psi(psi, n) for n in range(1, ctx.cap + 1)})
