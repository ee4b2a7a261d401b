"""Reference series constructions for the tests.

These are the sequential forms plethy used before the series layer stopped
recomputing: product_form convolves one SymFunc factor per m with
Fraction-valued v-polynomials, and plethystic_inverse recomposes the whole
partial inverse with G at every degree.  They share no expansion code with
plethy.series.product_form / plethystic_inverse, so each checks the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from plethy.partitions import divisors
from plethy.series import Series
from plethy.symfunc import SymFunc, p, plethysm

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
    parts: dict[int, SymFunc] = {}
    for (n, _), f in graded.items():
        parts[n] = parts.get(n, SymFunc.zero()) + f
    return Series(cap, parts, graded)


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
    return Series.from_symfunc(acc, cap)
