"""Exact symmetric functions in the power-sum basis.

A SymFunc is a finite map from partitions to rational coefficients, read as
sum of c_lambda * p_lambda and stored as integer numerators over one common
denominator.  Everything is exact; there is no floating point anywhere in
this package.  The power-sum basis is the single internal representation
because plethysm and omega act monomially on it; h, e and Schur functions
are conversion views.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

from ._mn_pure import mn_column
from .partitions import check_partition, format_partition, partitions_of, z_of

Scalar = Union[int, Fraction]

__all__ = [
    "SymFunc",
    "p",
    "h",
    "e",
    "s",
    "plethysm",
    "hall_inner",
    "mul_trunc",
]


def _check_coeff_size(text: str) -> None:
    """Refuse a coefficient string whose digits plus decimal exponent pass
    the int-to-str limit: its value could not be printed, and Fraction would
    first build the whole integer (a billion digits for "1e999999999")."""
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(map(str.isdigit, mantissa))
    try:
        size += abs(int(exponent)) if exponent else 0
    except ValueError:
        pass  # not an exponent: Fraction reports the literal
    if limit and size > limit:
        raise ValueError(f"more than {limit} digits (the int-to-str limit)")


def _exact(c) -> Fraction:
    """A coefficient as an exact Fraction; floats are refused, not rounded."""
    if isinstance(c, float):
        raise TypeError(f"coefficients must be exact (int, Fraction or str), got float {c!r}")
    return Fraction(c)


def _reduced(num: dict[tuple, int], den: int) -> "SymFunc":
    """SymFunc from integer numerators over den > 0, zeros dropped, in lowest terms."""
    if 0 in num.values():
        num = {lam: v for lam, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {lam: v // g for lam, v in num.items()}
            den //= g
    return SymFunc._raw(num, den)


class SymFunc:
    """Immutable sparse symmetric function in the p-basis.

    The coefficient of p_lambda is _num[lambda] / _den: integer numerators
    over one positive common denominator, kept in lowest terms (gcd of _den
    and every numerator is 1, _den is 1 for zero) with no zero numerator
    stored.  Ring operations therefore run on Python ints and reduce once
    per result; coeff() and items() hand out Fractions.  Instances may be
    inhomogeneous; per-degree slices come from homogeneous_part().
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        fracs: dict[tuple, Fraction] = {}
        if terms:
            for lam, c in terms.items():
                c = _exact(c)
                if c:
                    fracs[check_partition(lam)] = c
        # over the lcm of reduced denominators the numerators are already coprime
        den = lcm(*(c.denominator for c in fracs.values()))
        self._num = {lam: c.numerator * (den // c.denominator) for lam, c in fracs.items()}
        self._den = den

    @classmethod
    def _raw(cls, num: dict[tuple, int], den: int = 1) -> "SymFunc":
        # internal constructor: data already validated and in lowest terms
        obj = object.__new__(cls)
        obj._num = num
        obj._den = den
        return obj

    @classmethod
    def zero(cls) -> "SymFunc":
        return cls._raw({})

    @classmethod
    def one(cls) -> "SymFunc":
        return cls._raw({(): 1})

    # -- access ----------------------------------------------------------

    def coeff(self, lam: tuple) -> Fraction:
        return Fraction(self._num.get(lam, 0), self._den)

    def items(self) -> Iterator[tuple[tuple, Fraction]]:
        """Terms in canonical order: by degree, then reverse-lex."""
        den = self._den
        ordered = sorted(self._num.items(), key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])))
        return iter([(lam, Fraction(v, den)) for lam, v in ordered])

    def _int_terms(self) -> tuple[dict[tuple, int], int]:
        """(numerators, den): the coefficient of p_lambda is numerators[lambda] / den.

        The dict is the instance's own storage; callers must not mutate it.
        """
        return self._num, self._den

    def support(self) -> Iterable[tuple]:
        return self._num.keys()

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymFunc):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    __hash__ = None  # mutable-dict backed; compare by value only

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self._num}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous function."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("degree() needs a nonzero homogeneous function")
        return next(iter(degs))

    def homogeneous_part(self, n: int) -> "SymFunc":
        return _reduced({lam: v for lam, v in self._num.items() if sum(lam) == n}, self._den)

    def truncate(self, cap: int) -> "SymFunc":
        return _reduced({lam: v for lam, v in self._num.items() if sum(lam) <= cap}, self._den)

    # -- ring operations ---------------------------------------------------

    def _combine(self, other: "SymFunc", sign: int) -> "SymFunc":
        """self + sign * other over the lcm of the two denominators."""
        if not other:
            return self
        if not self:
            return other if sign == 1 else -other
        den = lcm(self._den, other._den)
        sa = den // self._den
        sb = sign * (den // other._den)
        data = {lam: v * sa for lam, v in self._num.items()} if sa != 1 else dict(self._num)
        get = data.get
        for lam, v in other._num.items():
            data[lam] = get(lam, 0) + v * sb
        return _reduced(data, den)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "SymFunc":
        return SymFunc._raw({lam: -v for lam, v in self._num.items()}, self._den)

    def scale(self, c: Scalar) -> "SymFunc":
        c = _exact(c)
        if not c:
            return SymFunc.zero()
        a = c.numerator
        return _reduced({lam: a * v for lam, v in self._num.items()}, c.denominator * self._den)

    def __mul__(self, other) -> "SymFunc":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        data: dict[tuple, int] = {}
        get = data.get
        for lam, a in self._num.items():
            for mu, b in other._num.items():
                key = tuple(sorted(lam + mu, reverse=True))
                data[key] = get(key, 0) + a * b
        return _reduced(data, self._den * other._den)

    def __rmul__(self, other) -> "SymFunc":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "SymFunc":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = SymFunc.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- the classical operators -------------------------------------------

    def omega(self) -> "SymFunc":
        """Sign-twist involution: p_lambda -> (-1)^(|lambda|-l(lambda)) p_lambda."""
        return SymFunc._raw(
            {lam: v if (sum(lam) - len(lam)) % 2 == 0 else -v for lam, v in self._num.items()},
            self._den,
        )

    def partial_p1(self) -> "SymFunc":
        """Formal derivative with respect to p_1 (= restriction on characteristics)."""
        data: dict[tuple, int] = {}
        for lam, v in self._num.items():
            m1 = 0
            for part in reversed(lam):
                if part != 1:
                    break
                m1 += 1
            if m1:
                # distinct lam give distinct lam[:-1], so nothing cancels
                data[lam[:-1]] = m1 * v
        return _reduced(data, self._den)

    def point_specialize(self, t: Scalar) -> Fraction:
        """Substitute p_k -> t for every k, so p_lambda -> t^l(lambda).

        Only defined per homogeneous degree; inhomogeneous input is rejected
        rather than silently summed.
        """
        if not self.is_homogeneous():
            raise ValueError("point_specialize needs homogeneous input")
        t = _exact(t)
        return sum((v * t ** len(lam) for lam, v in self._num.items()), Fraction(0)) / self._den

    def dimension(self) -> Fraction:
        """<f, p_1^n> for homogeneous f of degree n: the virtual dimension."""
        if not self:
            return Fraction(0)
        n = self.degree()
        return factorial(n) * self.coeff((1,) * n)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form shared with the CLI."""
        return {
            "basis": "p",
            "terms": [
                {"partition": list(lam), "coeff": str(c)} for lam, c in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SymFunc":
        """Inverse of to_dict; any malformed payload raises ValueError.

        A coeff is an int or a string such as "-3/4"; JSON floats are
        refused because they are binary approximations.
        """
        if not isinstance(payload, Mapping):
            raise ValueError("expected a JSON object")
        if payload.get("basis") != "p":
            raise ValueError("expected a p-basis payload")
        entries = payload.get("terms")
        if not isinstance(entries, list):
            raise ValueError("expected 'terms' to be a list")
        terms: dict[tuple, Fraction] = {}
        for entry in entries:
            if not isinstance(entry, Mapping) or not {"partition", "coeff"} <= entry.keys():
                raise ValueError(f"each term needs a 'partition' and a 'coeff': {entry!r}")
            parts, c = entry["partition"], entry["coeff"]
            if not isinstance(parts, list) or any(type(x) is not int for x in parts):
                raise ValueError(f"a partition is a list of integers: {parts!r}")
            if type(c) is not int and not isinstance(c, str):
                raise ValueError(f"a coeff is an integer or a string such as \"1/3\": {c!r}")
            try:
                if isinstance(c, str):
                    _check_coeff_size(c)
                c = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad coeff {entry['coeff']!r}: {exc}") from None
            lam = check_partition(tuple(parts))
            terms[lam] = terms.get(lam, Fraction(0)) + c
        return cls(terms)

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        bits = []
        for lam, c in self.items():
            bits.append(f"{c}*p{format_partition(lam)}")
        return " + ".join(bits)


# -- basis constructors -------------------------------------------------------


def p(lam) -> SymFunc:
    """Power-sum p_lambda; accepts a partition tuple or a single part."""
    if isinstance(lam, int):
        lam = (lam,)
    lam = check_partition(tuple(lam))
    return SymFunc._raw({lam: 1})


@lru_cache(maxsize=None)
def h(n: int) -> SymFunc:
    """Complete homogeneous h_n = sum over lambda of p_lambda / z_lambda."""
    if n < 0:
        raise ValueError("h(n) needs n >= 0")
    return SymFunc({lam: Fraction(1, z_of(lam)) for lam in partitions_of(n)})


@lru_cache(maxsize=None)
def e(n: int) -> SymFunc:
    """Elementary e_n = sum over lambda of (-1)^(n-l(lambda)) p_lambda / z_lambda."""
    if n < 0:
        raise ValueError("e(n) needs n >= 0")
    return SymFunc(
        {
            lam: Fraction((-1) ** ((n - len(lam)) % 2), z_of(lam))
            for lam in partitions_of(n)
        }
    )


def s(lam) -> SymFunc:
    """Schur function via characters: s_lam = sum_mu chi^lam(mu) p_mu / z_mu."""
    lam = check_partition(tuple(lam))
    return SymFunc(
        {mu: Fraction(mn_column(mu).get(lam, 0), z_of(mu)) for mu in partitions_of(sum(lam))}
    )


# -- bilinear / composition operators ----------------------------------------


def mul_trunc(a: SymFunc, b: SymFunc, cap: int) -> SymFunc:
    """Product with all terms of degree > cap dropped."""
    data: dict[tuple, int] = {}
    get = data.get
    b_by_deg: dict[int, list[tuple[tuple, int]]] = {}
    for mu, vb in b._num.items():
        b_by_deg.setdefault(sum(mu), []).append((mu, vb))
    for lam, va in a._num.items():
        da = sum(lam)
        if da > cap:
            continue
        for db, entries in b_by_deg.items():
            if da + db > cap:
                continue
            for mu, vb in entries:
                key = tuple(sorted(lam + mu, reverse=True))
                data[key] = get(key, 0) + va * vb
    return _reduced(data, a._den * b._den)


def _p_k_of(g: SymFunc, k: int) -> SymFunc:
    """p_k composed with g: replace every p_m by p_{km}, coefficients fixed."""
    if k == 1:
        return g
    return SymFunc._raw(
        {tuple(part * k for part in lam): v for lam, v in g._num.items()}, g._den
    )


def plethysm(f: SymFunc, g: SymFunc, cap: int | None = None) -> SymFunc:
    """Plethysm f o g, optionally truncated to total degree <= cap.

    g must have no degree-0 term (composition into a series with constant
    term is undefined here).  Bilinear in f; in g only power sums distribute.
    """
    if g.coeff(()):
        raise ValueError("plethysm: right argument has a degree-0 term")
    pk_cache: dict[int, SymFunc] = {}

    def pk(k: int) -> SymFunc:
        out = pk_cache.get(k)
        if out is None:
            out = _p_k_of(g, k)
            if cap is not None:
                out = out.truncate(cap)
            pk_cache[k] = out
        return out

    # sum of c * term over the lcm of the term denominators, divided by f._den
    total: dict[tuple, int] = {}
    den = 1
    for lam, c in f._num.items():
        if cap is not None and sum(lam) > cap:
            continue
        term = SymFunc.one()
        for part in lam:
            term = mul_trunc(term, pk(part), cap) if cap is not None else term * pk(part)
            if not term:
                break
        new_den = lcm(den, term._den)
        if new_den != den:
            up = new_den // den
            total = {mu: v * up for mu, v in total.items()}
            den = new_den
        c *= den // term._den
        for mu, v in term._num.items():
            total[mu] = total.get(mu, 0) + c * v
    return _reduced(total, den * f._den)


def hall_inner(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall pairing: <p_lam, p_mu> = delta z_lam, extended bilinearly."""
    if len(f._num) > len(g._num):
        f, g = g, f
    total = 0
    for lam, a in f._num.items():
        b = g._num.get(lam)
        if b is not None:
            total += a * b * z_of(lam)
    return Fraction(total, f._den * g._den)
