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

from ._mn_pure import encode, keyed_column
from .partitions import check_partition, format_partition, is_partition, partitions_of, z_of

Scalar = Union[int, Fraction]

__all__ = [
    "SymFunc",
    "p",
    "h",
    "e",
    "s",
    "plethysm",
    "hall_inner",
    "linear_sum",
    "mul_trunc",
    "Keyed",
    "mul_sum",
]


def _excerpt(value) -> str:
    """repr(value), cut to its first 40 characters plus "..." if longer, so
    an error message about outside input stays short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _check_coeff_size(text: str) -> None:
    """Refuse a coefficient string whose digits plus decimal exponent pass
    the int-to-str limit: its value could not be printed, and Fraction would
    first build the whole integer (a billion digits for "1e999999999")."""
    # CPython before 3.10.7 has no such reader; 4300 is the default limit where it has one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(map(str.isdigit, mantissa))
    try:
        size += abs(int(exponent)) if exponent else 0
    except ValueError:
        pass  # not an exponent: Fraction refuses the literal
    if limit and size > limit:
        raise ValueError(
            f"bad coeff {_excerpt(text)}: more than {limit} digits (the int-to-str limit)"
        )


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

    def degree(self) -> int:
        """Degree of a nonzero homogeneous function."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("degree() needs a nonzero homogeneous function")
        return next(iter(degs))

    def homogeneous_part(self, n: int) -> "SymFunc":
        return _reduced({lam: v for lam, v in self._num.items() if sum(lam) == n}, self._den)

    def homogeneous_parts(self) -> dict[int, "SymFunc"]:
        """{n: homogeneous_part(n)} for every degree n present, in one pass."""
        by_deg: dict[int, dict[tuple, int]] = {}
        for lam, v in self._num.items():
            by_deg.setdefault(sum(lam), {})[lam] = v
        return {n: _reduced(num, self._den) for n, num in by_deg.items()}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return linear_sum(((1, self), (1, other)))

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return linear_sum(((1, self), (-1, other)))

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
        one, many = (self, other) if len(self._num) == 1 else (other, self)
        if len(one._num) == 1:
            # p_lam * sum c_mu p_mu = sum c_mu p_(lam u mu): distinct mu give
            # distinct lam u mu, so the product is a relabelling
            ((lam, a),) = one._num.items()
            num = {tuple(sorted(lam + mu, reverse=True)): a * v for mu, v in many._num.items()}
            return _reduced(num, one._den * many._den)
        # no term of the product passes the sum of the two top degrees
        top = max(map(sum, self._num), default=0) + max(map(sum, other._num), default=0)
        return mul_trunc(self, other, top)

    def __rmul__(self, other) -> "SymFunc":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
                raise ValueError(f"each term needs a 'partition' and a 'coeff': {_excerpt(entry)}")
            parts, c = entry["partition"], entry["coeff"]
            if not isinstance(parts, list) or any(type(x) is not int for x in parts):
                raise ValueError(f"a partition is a list of integers: {_excerpt(parts)}")
            lam = tuple(parts)
            if not is_partition(lam):
                raise ValueError(f"not a partition: {_excerpt(parts)}")
            if type(c) is not int and not isinstance(c, str):
                raise ValueError(f"a coeff is an integer or a string such as \"1/3\": {_excerpt(c)}")
            if isinstance(c, str):
                _check_coeff_size(c)
            try:
                c = Fraction(c)
            except ZeroDivisionError:
                raise ValueError(f"bad coeff {_excerpt(c)}: zero denominator") from None
            except ValueError:
                # Fraction's own message would repeat the whole literal
                raise ValueError(f"bad coeff {_excerpt(c)}: not an integer or a fraction") from None
            terms[lam] = terms.get(lam, Fraction(0)) + c
        return cls(terms)

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        bits = []
        for lam, c in self.items():
            bits.append(f"{c}*p{format_partition(lam)}")
        return " + ".join(bits)


def linear_sum(terms: Iterable[tuple[int, SymFunc]]) -> SymFunc:
    """The sum of c * f over the (c, f) pairs, c an int.

    One pass over the lcm of the denominators and one reduction, so a sum of
    many functions does not copy a running total once per term.
    """
    terms = [(c, f) for c, f in terms if c and f._num]
    if len(terms) <= 1:
        if not terms:
            return SymFunc.zero()
        c, f = terms[0]
        return f if c == 1 else -f if c == -1 else f.scale(c)
    den = lcm(*(f._den for _, f in terms))
    c, f = terms[0]
    s = c * (den // f._den)
    data = dict(f._num) if s == 1 else {lam: s * v for lam, v in f._num.items()}
    get = data.get
    for c, f in terms[1:]:
        s = c * (den // f._den)
        for lam, v in f._num.items():
            data[lam] = get(lam, 0) + s * v
    return _reduced(data, den)


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
    key = encode(lam)
    return SymFunc(
        {mu: Fraction(keyed_column(mu).get(key, 0), z_of(mu)) for mu in partitions_of(sum(lam))}
    )


# -- bilinear / composition operators ----------------------------------------
#
# Every product runs on integer partition keys.  For a fixed cap, with
# B = cap + 1, the partition 1^k1 2^k2 ... of degree <= cap is keyed as
# sum_m k_m * B^(m-1).  Every multiplicity is at most the degree, so no base-B
# digit carries while a product keeps its degree <= cap: the key of
# p_lambda * p_mu is key(lambda) + key(mu), with no sorting.  Terms travel as
# [(degree, [(key, numerator), ...]), ...] with degrees ascending, so a
# product loop stops as soon as the degree passes its budget.  There is one
# product loop over keyed numerators, _mul_grouped, and every product calls
# it: _Powers builds each p_lambda[g] with it once per inner g and adds each
# term of a plethysm as a product with the constant group, and every
# plethysm is a _Powers apply; mul_sum drives it for a whole sum of products
# over one common denominator, which is how Series products and bracket sums
# multiply: each operand is encoded once as a Keyed value, and each result
# is reduced and decoded once.  series._outer_powers calls it once per step
# of its recursion, with a polynomial in v packed into each numerator; it
# and the product walk of series read their packed ints with _fields.


class _PartitionKeys:
    """The key of each partition of degree <= cap, and back, memoized as met.

    Nothing is enumerated up front: a partition is encoded the first time a
    kernel sees it, and a key is decoded the first time a result holds it.
    """

    __slots__ = ("cap", "base", "_keys", "_parts")

    def __init__(self, cap: int):
        self.cap = cap
        self.base = cap + 1
        self._keys: dict[tuple, tuple[int, int]] = {}  # partition -> (key, degree)
        self._parts: dict[int, tuple] = {0: ()}  # key -> partition

    def decode(self, key: int) -> tuple:
        lam = self._parts.get(key)
        if lam is None:
            parts: list[int] = []
            rest, m = key, 0
            while rest:
                rest, k = divmod(rest, self.base)
                m += 1
                parts += [m] * k
            lam = self._parts[key] = tuple(reversed(parts))
        return lam

    def grouped(self, terms) -> list[tuple[int, list[tuple[int, int]]]]:
        """The (partition, numerator) pairs of degree <= cap, as keyed degree
        groups in ascending degree; a partition is keyed the first time a
        kernel sees it, as sum_m base^(m-1) over its parts m."""
        by_deg: dict[int, list[tuple[int, int]]] = {}
        keys, base, cap = self._keys, self.base, self.cap
        for lam, v in terms:
            kd = keys.get(lam)
            if kd is None:
                deg = sum(lam)
                if deg > cap:
                    continue
                kd = keys[lam] = (sum(base ** (m - 1) for m in lam), deg)
            key, deg = kd
            group = by_deg.get(deg)
            if group is None:
                by_deg[deg] = [(key, v)]
            else:
                group.append((key, v))
        return sorted(by_deg.items())


@lru_cache(maxsize=64)
def _partition_keys(cap: int) -> _PartitionKeys:
    return _PartitionKeys(cap)


def _fields(totals: list[int], w: int, count: int) -> Iterator[list[int]]:
    """Fields 0, 1, ..., count - 1 of the ints in totals, one list per field,
    each int packed as sum over i < count of f_i 2^(w i) with every f_i in
    [-2^(w-1), 2^(w-1)): with 2^(w-1) added to every field, none is
    negative or carries.  That bias is added to each int once, in place, as
    the first field is read, so only one copy of the ints is alive.  The one
    reader of packed ints: schur._expand, series._outer_powers,
    series._degree_terms."""
    half, full = 1 << (w - 1), (1 << w) - 1
    bias = half * ((1 << (w * count)) - 1) // full
    for i, t in enumerate(totals):
        totals[i] = t + bias
    for j in range(count):
        shift = w * j
        yield [((t >> shift) & full) - half for t in totals]


def _mul_grouped(a: list, b: list, budget: int, out: dict | None = None, scale: int = 1) -> dict:
    """Add scale * a * b, terms of degree > budget dropped, to out.

    a and b are keyed degree-group lists; out maps degree -> {key: numerator}
    and is returned (a new one if None).
    """
    if out is None:
        out = {}
    for da, ta in a:
        room = budget - da
        if room < 0:
            break
        for db, tb in b:
            if db > room:
                break
            acc = out.get(da + db)
            if acc is None:
                acc = out[da + db] = {}
            get = acc.get
            for ka, va in ta:
                va *= scale
                for kb, vb in tb:
                    k = ka + kb
                    acc[k] = get(k, 0) + va * vb
    return out


def _as_groups(out: dict) -> list:
    """The keyed degree-group list of a _mul_grouped accumulator, zeros dropped."""
    groups = []
    for d in sorted(out):
        terms = [(k, v) for k, v in out[d].items() if v]
        if terms:
            groups.append((d, terms))
    return groups


class Keyed:
    """A symmetric function cut to degree <= cap, in the kernels' form.

    groups is a keyed degree-group list [(degree, [(key, numerator), ...]),
    ...] over the partition keys of the cap, degrees ascending, and den > 0
    is the one denominator of every numerator.  A value that goes through
    several products stays keyed in between: it is encoded from a SymFunc
    once, and decoded once at the end, either whole or one degree at a time.
    """

    __slots__ = ("keys", "groups", "den")

    def __init__(self, keys: _PartitionKeys, groups: list, den: int = 1):
        self.keys = keys
        self.groups = groups
        self.den = den

    @classmethod
    def encode(cls, f: SymFunc, cap: int) -> "Keyed":
        """The terms of f of degree <= cap."""
        keys = _partition_keys(cap)
        return cls(keys, keys.grouped(f._num.items()), f._den)

    def __bool__(self) -> bool:
        return bool(self.groups)

    def symfunc(self) -> SymFunc:
        decode = self.keys.decode
        return _reduced({decode(k): v for _, terms in self.groups for k, v in terms}, self.den)

    def parts(self) -> dict[int, SymFunc]:
        """{n: the degree-n part} for every degree present, each in lowest terms."""
        decode = self.keys.decode
        return {d: _reduced({decode(k): v for k, v in terms}, self.den) for d, terms in self.groups}


def mul_sum(pairs: Iterable[tuple[Keyed, Keyed]], cap: int) -> Keyed:
    """The sum of a * b over the pairs, terms of degree > cap dropped.

    Every product is accumulated over the lcm of the pairs' denominators, so
    the sum is reduced by one gcd at the end.  Every operand must be keyed
    for this cap.
    """
    keys = _partition_keys(cap)
    pairs = [(a, b) for a, b in pairs if a.groups and b.groups]
    for a, b in pairs:
        if a.keys.cap != cap or b.keys.cap != cap:
            raise ValueError(
                f"mul_sum at cap {cap} got operands keyed for caps {a.keys.cap}, {b.keys.cap}"
            )
    den = lcm(*(a.den * b.den for a, b in pairs))
    out: dict = {}
    for a, b in pairs:
        _mul_grouped(a.groups, b.groups, cap, out, den // (a.den * b.den))
    return _lowest_terms(keys, out, den)


def _lowest_terms(keys: _PartitionKeys, out: dict, den: int) -> Keyed:
    """The _mul_grouped accumulator out over den, as a Keyed value in lowest terms."""
    groups = _as_groups(out)
    g = gcd(den, *(v for _, terms in groups for _, v in terms))
    if g != 1:
        groups = [(d, [(k, v // g) for k, v in terms]) for d, terms in groups]
        den //= g
    return Keyed(keys, groups, den)


def mul_trunc(a: SymFunc, b: SymFunc, cap: int) -> SymFunc:
    """Product with all terms of degree > cap dropped: the one-pair mul_sum."""
    if cap < 0:
        return SymFunc.zero()
    return mul_sum([(Keyed.encode(a, cap), Keyed.encode(b, cap))], cap).symfunc()


class _Powers:
    """The keyed p_lambda[g] of one inner g at one cap, each built once for
    every f applied to g.

    p_lambda[g] is the product over the parts m of p_m[g], which replaces
    every p_mu in g by p_{m mu}.  The memo keeps per lambda p_lambda[g] cut
    to degree cap, over g._den^l(lambda), and builds a lambda of several
    parts as p_(lambda minus its last part m)[g] times p_m[g], both from
    the memo.  Every product is one _mul_grouped call.
    """

    __slots__ = ("g", "cap", "keys", "gmin", "_memo")

    def __init__(self, g: SymFunc, cap: int):
        if () in g._num:
            raise ValueError("plethysm: right argument has a degree-0 term")
        self.g = g
        self.cap = cap
        self.keys = _partition_keys(cap)
        # for g = 0 only the constant term of an f passes the degree test of apply
        self.gmin = min(map(sum, g._num), default=cap + 1)
        self._memo: dict[tuple, list] = {(): [(0, [(0, 1)])]}

    def power(self, lam: tuple) -> list:
        """Keyed p_lam[g], cut to degree cap."""
        groups = self._memo.get(lam)
        if groups is None:
            m, cap = lam[-1], self.cap
            if len(lam) == 1:
                # mu -> m * mu is one to one, so no key repeats
                terms = self.g._num.items()
                pm = [(tuple(m * x for x in mu), v) for mu, v in terms if m * sum(mu) <= cap]
                groups = self.keys.grouped(pm)
            else:
                groups = _as_groups(_mul_grouped(self.power(lam[:-1]), self.power((m,)), cap))
            self._memo[lam] = groups
        return groups

    def apply(self, f: SymFunc) -> Keyed:
        """f[g] cut to degree <= cap, in lowest terms: the sum over the
        lambda of f with gmin * |lambda| <= cap of c_lambda times p_lambda[g],
        each added as its product with the constant group."""
        cap, gmin, gden = self.cap, self.gmin, self.g._den
        items = [(lam, c) for lam, c in f._num.items() if gmin * sum(lam) <= cap]
        longest = max((len(lam) for lam, _ in items), default=0)
        out: dict[int, dict[int, int]] = {}
        for lam, c in items:
            c *= gden ** (longest - len(lam))
            _mul_grouped(self.power(()), self.power(lam), cap, out, c)
        return _lowest_terms(self.keys, out, f._den * gden**longest)


def plethysm(f: SymFunc, g: SymFunc, cap: int | None = None) -> SymFunc:
    """Plethysm f o g, truncated to total degree <= cap: one _Powers(g, cap).

    g must have no degree-0 term (composition into a series with constant
    term is undefined here).  cap=None means no truncation and is run as
    cap = maxdeg(f) * maxdeg(g), which no term can pass, so there is one path.
    """
    if cap is None:
        cap = max(map(sum, f._num), default=0) * max(map(sum, g._num), default=0)
    return _Powers(g, cap).apply(f).symfunc()


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
