"""The protagonist module families: lie, conj, lie2 and their relatives.

Everything here is a Frobenius characteristic built from the single template

    f_n = (1/n) * sum over d | n of psi(d) * p_d^(n/d)

for an arithmetic weight psi.  lie uses the Mobius function, conj the
totient, and the two-adic variant lie2 is defined through Ramanujan sums at
r = two_adic_part(n).  The tests check these characters against an
independent combinatorial route, the standard-tableau major-index counter in
tests/tableau_oracle.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .partitions import divisors, mobius, totient, two_adic_part
from .symfunc import SymFunc, p

__all__ = [
    "Psi",
    "ramanujan_sum",
    "f_from_psi",
    "ell",
    "lie",
    "conj",
    "lie2",
    "whitehouse_deficit",
]


def ramanujan_sum(d: int, r: int) -> int:
    """Sum of the r-th powers of the primitive d-th roots of unity.

    Closed form: phi(d) * mu(d/(d,r)) / phi(d/(d,r)), always an integer.
    """
    if d < 1 or r < 1:
        raise ValueError("ramanujan_sum needs d, r >= 1")
    q = d // gcd(d, r)
    num = totient(d) * mobius(q)
    den = totient(q)
    assert num % den == 0
    return num // den


def _odd_part(n: int) -> int:
    return n // two_adic_part(n)


class Psi(NamedTuple):
    """Named arithmetic weight for the f_n template.

    psi(1) fixes the dimension (n-1)! * psi(1) of f_n.
    """

    name: str
    fn: Callable[[int], int]

    def __call__(self, d: int) -> int:
        return self.fn(d)

    @classmethod
    def mobius(cls) -> "Psi":
        return cls("mobius", mobius)

    @classmethod
    def totient(cls) -> "Psi":
        return cls("totient", totient)

    @classmethod
    def two_adic(cls) -> "Psi":
        # phi on the 2-part times mu on the odd part; this is what
        # ramanujan_sum(d, two_adic_part(n)) collapses to for every d | n,
        # making lie2 an instance of the f_n template with one fixed psi.
        return cls("two_adic", lambda d: totient(two_adic_part(d)) * mobius(_odd_part(d)))


def f_from_psi(psi: Psi | Callable[[int], int], n: int) -> SymFunc:
    """(1/n) * sum over d | n of psi(d) * p_d^(n/d)."""
    if n < 1:
        raise ValueError("f_from_psi needs n >= 1")
    terms = {}
    for d in divisors(n):
        c = Fraction(psi(d), n)
        if c:
            terms[(d,) * (n // d)] = c
    return SymFunc(terms)


def ell(n: int, r: int) -> SymFunc:
    """Characteristic of the cyclic-group character at exponent r, induced up.

    (1/n) * sum over d | n of c_d(r) * p_d^(n/d), c_d the Ramanujan sum.
    """
    if not 1 <= r <= n:
        raise ValueError("ell needs 1 <= r <= n")
    return f_from_psi(lambda d: ramanujan_sum(d, r), n)


def _degree(name: str, n: int) -> int:
    """n itself; a degree below 1 is refused in the family's own name."""
    if n < 1:
        raise ValueError(f"{name} needs n >= 1")
    return n


def lie(n: int) -> SymFunc:
    """Multilinear free-Lie-algebra character: psi = mobius."""
    return f_from_psi(Psi.mobius(), _degree("lie", n))


def conj(n: int) -> SymFunc:
    """Conjugacy action on n-cycles: psi = totient."""
    return f_from_psi(Psi.totient(), _degree("conj", n))


def lie2(n: int) -> SymFunc:
    """The two-adic variant: ell(n, two_adic_part(n)).

    The odd / power-of-two / twice-odd trichotomy (= lie, conj, omega(lie))
    is a consequence checked in tests, not the definition.
    """
    return ell(n, two_adic_part(_degree("lie2", n)))


def whitehouse_deficit(n: int, family: str = "lie") -> SymFunc:
    """p_1 * family(n-1) - family(n): the lifting obstruction at degree n."""
    if n < 2:
        raise ValueError("whitehouse_deficit needs n >= 2")
    build = {"lie": lie, "lie2": lie2}.get(family)
    if build is None:
        raise ValueError("family must be 'lie' or 'lie2'")
    return p(1) * build(n - 1) - build(n)
