"""Truncated plethystic series and the derived module constructions.

A Series is one map from (n, r) slots, 0 <= n <= cap, to homogeneous
SymFuncs: slot (n, r) is the piece of degree n under v^r.  For a series out
of an outer-power operator or a product formula, r is the outer length (the
v-marker); a series built from degree parts keeps degree n in slot (n, 0).
Each operation has one rule over the slots: a sum adds them slot by slot,
and a product multiplies length columns, so (n1, r1) times (n2, r2) lands in
(n1 + n2, r1 + r2).  drop_grading is the one collapse of a series to its
(n, 0) slots.  The degree-n part is the sum of the slots (n, r), derived on
first read.  Every operation takes the cap from its inputs and never reads
beyond it; a slot above the cap is refused, so nothing truncates silently.

The outer powers H(v)[F] and E(v)[F] come from the exponential recursion
in the degree, on the integer partition keys of symfunc, with the length
grading packed into each coefficient (Kronecker substitution, v -> 2^w, at
a width w fixed by an exact bound), so one product of ints serves every
pair of lengths.  The other products stay in the keyed form of symfunc
(Keyed, mul_sum): bracket_sum walks the partitions as a trie of keyed
prefix products, and a Series product multiplies keyed columns.  Each
operand is encoded once, each sum of products is accumulated over one
common denominator, and each result slot is reduced and decoded once.
Sums of many SymFuncs are one linear_sum, not a chain of +.  Plethysms
into one inner g share one _Powers memo, so each p_lam[g] is built once.

What a sign rule or a running sum gives is derived, not built again.  A
sign that depends only on the slot is a slot flip of the cached series:
Hpm and Epm negate the odd-length slots of H and E (v -> -v), and the
signed bracket sum negates the odd-corank slots of the unsigned one, since
(-1)^(|lam| - l(lam)) is fixed by (|lam|, l(lam)).  Of the six product
formulas only two are expanded: v -> -v gives two more, and the twist
p_m -> -p_m, which is (-1)^n omega in degree n, the last two.

The truncated alternating sums u(n, k) and beta(n, k) are read straight off
the integer numerators N_lam(v) of the product formulas, one degree at a
time.  One walk over the partitions mu with no part 1 gives each N_mu and
z_mu; the terms of degree n are lam = mu + 1^j, and product_form and the
rows both assemble their slots from the one walk SeriesContext caches.

Each job has one way in.  SeriesContext.get is the one read of the cache,
and _recipe the one statement, per memo key, of the keys its value is built
from and of how: get hands a build only the values of those keys, and
SeriesContext.sources reads them off the same recipe.  The accessors
(family, app, power_sums, ...) are one get each.  The outer powers come
from _outer_powers alone, over the cached p_k[F] pieces.
"""

from __future__ import annotations

from math import factorial, gcd, lcm
from typing import Callable, Iterable

from . import lie_family
from .lie_family import Psi
from .partitions import divisors, partitions_of
from .symfunc import Keyed, SymFunc, _fields, _partition_keys, _Powers, _reduced
from .symfunc import e, h, linear_sum, mul_sum, p, plethysm

__all__ = [
    "Series",
    "bracket_sum",
    "series_plethysm",
    "plethystic_inverse",
    "restrict_ge2",
    "product_form",
    "SeriesContext",
    "p_sum_over",
]


class Series:
    """Degree-capped series of homogeneous symmetric functions in (n, r) slots.

    Series(cap, parts) puts the degree-n part at slot (n, 0), and
    Series(cap, graded=slots) fills the slots directly.  A slot whose degree
    is outside 0..cap is refused.  The degree parts are the sums of the
    slots, each built once, on first read.
    """

    __slots__ = ("cap", "_slots", "_parts")

    def __init__(
        self,
        cap: int,
        parts: Iterable[SymFunc] | dict[int, SymFunc] | None = None,
        graded: dict[tuple[int, int], SymFunc] | None = None,
    ):
        if parts is not None and graded is not None:
            raise ValueError("a Series takes degree parts or graded slots, not both")
        if graded is None:
            items = parts.items() if isinstance(parts, dict) else enumerate(parts or ())
            graded = {(n, 0): f for n, f in items}
        for n, r in graded:
            if not 0 <= n <= cap:
                raise ValueError(f"slot ({n}, {r}) outside degrees 0..{cap}")
        self.cap = cap
        self._slots = {key: f for key, f in graded.items() if f}
        self._parts: list[SymFunc] | None = None

    # -- access ----------------------------------------------------------

    def _degree_parts(self) -> list[SymFunc]:
        if self._parts is None:
            terms: list[list[tuple[int, SymFunc]]] = [[] for _ in range(self.cap + 1)]
            for (n, _), f in self._slots.items():
                terms[n].append((1, f))
            self._parts = [linear_sum(t) for t in terms]
        return self._parts

    def coeff(self, n: int) -> SymFunc:
        if not 0 <= n <= self.cap:
            raise IndexError(f"degree {n} outside cap {self.cap}")
        return self._degree_parts()[n]

    def graded(self, n: int, r: int) -> SymFunc:
        if not 0 <= n <= self.cap:
            raise IndexError(f"degree {n} outside cap {self.cap}")
        return self._slots.get((n, r), SymFunc.zero())

    def graded_keys(self) -> list[tuple[int, int]]:
        return sorted(self._slots)

    def total(self) -> SymFunc:
        return linear_sum((1, f) for f in self._slots.values())

    def drop_grading(self) -> "Series":
        return Series(self.cap, self._degree_parts())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.cap, self._slots) == (other.cap, other._slots)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _map_slots(self, fn: Callable[[int, int, SymFunc], SymFunc]) -> "Series":
        """fn(n, r, f) in every slot; fn must send 0 to 0, as empty slots are skipped."""
        return Series(self.cap, graded={(n, r): fn(n, r, f) for (n, r), f in self._slots.items()})

    def _binary(self, other: "Series", op) -> "Series":
        if self.cap != other.cap:
            raise ValueError("cap mismatch")
        slots = dict(self._slots)
        for key, f in other._slots.items():
            slots[key] = op(slots.get(key, SymFunc.zero()), f)
        return Series(self.cap, graded=slots)

    def __add__(self, other: "Series") -> "Series":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "Series") -> "Series":
        return self._binary(other, lambda a, b: a - b)

    def scale(self, c) -> "Series":
        return self._map_slots(lambda n, r, f: f.scale(c))

    def __mul__(self, other: "Series") -> "Series":
        """The truncated product: slot (n1, r1) times slot (n2, r2) lands in
        (n1 + n2, r1 + r2).

        The slots of each length r are summed into one keyed column, so each
        column is encoded once and output length r is one mul_sum over the
        column pairs.  Two series of degree parts are one r = 0 column each.
        """
        if not isinstance(other, Series):
            return NotImplemented
        if self.cap != other.cap:
            raise ValueError("cap mismatch")
        cap = self.cap
        pairs: dict[int, list[tuple[Keyed, Keyed]]] = {}
        columns = _keyed_columns(other)
        for r1, x in _keyed_columns(self).items():
            for r2, y in columns.items():
                pairs.setdefault(r1 + r2, []).append((x, y))
        slots = {(n, r): f for r, rp in pairs.items() for n, f in mul_sum(rp, cap).parts().items()}
        return Series(cap, graded=slots)

    def reciprocal(self) -> "Series":
        """1/self for a series with constant term 1, in (n, 0) slots."""
        parts = self._degree_parts()
        if parts[0] != SymFunc.one():
            raise ValueError("reciprocal needs constant term 1")
        cap = self.cap
        neg = [Keyed.encode(-f, cap) for f in parts]
        inv = [Keyed.encode(SymFunc.one(), cap)]
        for n in range(1, cap + 1):
            inv.append(mul_sum([(neg[k], inv[n - k]) for k in range(1, n + 1)], cap))
        return Series(cap, [x.symfunc() for x in inv])

    def map(self, fn: Callable[[SymFunc], SymFunc]) -> "Series":
        """fn slot by slot, for a linear fn."""
        return self._map_slots(lambda n, r, f: fn(f))

    def twist(self) -> "Series":
        """The ring map p_m -> -p_m, slot by slot: it sends a degree-n piece
        f to (-1)^n omega(f) (Macdonald, Symmetric Functions, I.2)."""
        return self._map_slots(lambda n, r, f: -f.omega() if n % 2 else f.omega())


def _keyed_columns(S: Series) -> dict[int, Keyed]:
    """{r: the sum over n of slot (n, r)}, keyed for the cap."""
    columns: dict[int, list[tuple[int, SymFunc]]] = {}
    for (_, r), f in S._slots.items():
        columns.setdefault(r, []).append((1, f))
    return {r: Keyed.encode(linear_sum(fs), S.cap) for r, fs in columns.items()}


# -- the H/E outer operators ----------------------------------------------------


def _power_sums(F: Series, cap: int) -> list[SymFunc]:
    """[p_1[F], ..., p_cap[F]], truncated to degree cap."""
    tot = F.total()
    if tot.coeff(()):
        raise ValueError("outer application needs a series with no degree-0 term")
    return [plethysm(p(k), tot, cap) for k in range(1, cap + 1)]


def _exponent(kind: str, pk: list[SymFunc], cap: int) -> tuple[int, list[list[tuple]]]:
    """(L, B) for the exponent of H(v)[F] or E(v)[F], pk = [p_1[F], p_2[F], ...].

    H(v)[F] = exp(sum over k of v^k p_k[F] / k), and E(v)[F] puts the sign
    (-1)^(k-1) on term k (Macdonald I.2).  Y_j, the degree-j part of the
    exponent, has (+-) [p_k[F]]_j / k on v^k.  L is the lcm of the reduced
    denominators of every j * Y_j, and B[j] lists the terms (key, k, c) of
    the integer L * j * Y_j over the partition keys of the cap.
    """
    flip_even = {"H": False, "E": True}[kind]
    keys = _partition_keys(cap)
    pieces = []  # (j, k, sign, k * den, [(key, numerator), ...])
    L = 1
    for k, f in enumerate(pk, 1):
        sign = -1 if flip_even and k % 2 == 0 else 1
        for j, terms in keys.grouped(f._num.items(), cap):
            d = k * f._den
            L = lcm(L, d // gcd(d, j * gcd(*(v for _, v in terms))))
            pieces.append((j, k, sign, d, terms))
    B: list[list[tuple]] = [[] for _ in range(cap + 1)]
    for j, k, sign, d, terms in pieces:
        q = sign * L * j
        B[j].extend((key, k, q * v // d) for key, v in terms)
    return L, B


def _field_bounds(B: list[list[tuple]], L: int) -> list[int]:
    """[M_0, ..., M_cap] for (L, B) = _exponent(...): M_0 = 1 and M_n is the
    sum over j of (n-1)!/(n-j)! L^(j-1) |B[j]| M_(n-j), |B[j]| the sum of
    |c| over the terms of B[j].

    M_n bounds every field of A_n in _outer_powers: for a fixed key of A_n,
    each key of B[j] fixes the key of A_(n-j) it pairs with, and each k
    fixes the length it pairs with, so the field sums at most |B[j]|
    products of a coefficient of B[j] with one field of A_(n-j).
    """
    norms = [sum(abs(c) for _, _, c in terms) for terms in B]
    M = [1]
    for n in range(1, len(B)):
        c, total = 1, 0
        for j in range(1, n + 1):
            total += c * norms[j] * M[n - j]
            c *= (n - j) * L
        M.append(total)
    return M


def _outer_powers(kind: str, pk: list[SymFunc], cap: int) -> Series:
    """H or E of the family F with pk = [p_1[F], p_2[F], ...], truncated to
    degree cap: slot (n, r) is the degree-n part of x_r[F], x = h or e.

    The exponential recursion in the degree: the degree-n part H_n of
    exp(sum of Y_j) obeys n H_n = sum over j of (j Y_j) H_(n-j), and with
    A_n = n! L^n H_n and (L, B) = _exponent(kind, pk, cap) it runs on
    integers: A_n = sum over j of (n-1)!/(n-j)! L^(j-1) B[j] A_(n-j).
    Each coefficient of A_n and B[j] is a polynomial in v, packed as
    sum over r of a_r 2^(w r) (Kronecker substitution, v -> 2^w), so one
    product per pair of keys serves every pair of lengths.  w is exact, by
    the rule of schur._expand: w - 1 is the bit length of the largest of
    _field_bounds, so every field of A_n lies in [-2^(w-1), 2^(w-1)).
    Slot (n, r) is field r of A_n, read by symfunc._fields and reduced once
    over n! L^n; A_n has lengths r <= n, as p_k[F] starts in degree k.
    """
    L, B = _exponent(kind, pk, cap)
    w = max(_field_bounds(B, L)).bit_length() + 1
    packed: list[dict[int, int]] = []
    for terms in B:
        row: dict[int, int] = {}
        for key, k, c in terms:
            row[key] = row.get(key, 0) + (c << (w * k))
        packed.append(row)
    A = [[(0, 1)]]  # A_n as [(key, packed numerator), ...]
    for n in range(1, cap + 1):
        acc: dict[int, int] = {}
        get = acc.get
        c = 1  # (n-1)!/(n-j)! L^(j-1)
        for j in range(1, n + 1):
            prev = A[n - j]
            for kb, b in packed[j].items():
                b *= c
                for ka, a in prev:
                    key = ka + kb
                    acc[key] = get(key, 0) + a * b
            c *= (n - j) * L
        A.append([(key, t) for key, t in acc.items() if t])
    decode = _partition_keys(cap).decode
    graded: dict[tuple[int, int], SymFunc] = {}
    for n, terms in enumerate(A):
        lams = [decode(key) for key, _ in terms]
        totals = [t for _, t in terms]
        den = factorial(n) * L**n
        for r in range(min(n, 1), n + 1):  # every term of the exponent carries v
            num = {lam: v for lam, v in zip(lams, _fields(totals, w, r, n + 1)) if v}
            if num:
                graded[n, r] = _reduced(num, den)
    return Series(cap, graded=graded)


def _negate_slots(A: Series, odd: Callable[[int, int], int]) -> Series:
    """A with every slot (n, r) where odd(n, r) is true negated."""
    return A._map_slots(lambda n, r, f: -f if odd(n, r) else f)


def _flip_v(A: Series) -> Series:
    """A with v -> -v: its odd-length slots negated."""
    return _negate_slots(A, lambda n, r: r % 2)


def bracket_sum(kind: str, Q: Series) -> Series:
    """sum over partitions of v^l(lam) * bracket, as a graded Series.

    The independent route to SeriesContext.app: products of small plethysms
    instead of the exponential recursion of _outer_powers.  Each factor x_m[q_part] is built once,
    off one _Powers memo per part.  The partitions up to the cap are walked
    as a trie over their (part, multiplicity) groups, parts descending; the
    keyed product of a prefix's factors is built once for the lams below it.
    A lam enters its slot (|lam|, l(lam)) as that product, or as the pair
    (its prefix, its last factor) if none was built: one mul_sum per slot.
    """
    if kind not in ("H", "E"):
        raise ValueError("kind must be 'H' or 'E'")
    cap = Q.cap
    base = h if kind == "H" else e
    one = Keyed.encode(SymFunc.one(), cap)
    factors: dict[tuple[int, int], Keyed] = {}  # (part, m) -> x_m[q_part]
    for part in range(1, cap + 1):
        powers = _Powers(Q.coeff(part), cap)
        factors.update({(part, m): powers.apply(base(m)) for m in range(1, cap // part + 1)})
    slots: dict[tuple[int, int], list[tuple[Keyed, Keyed]]] = {(0, 0): [(one, one)]}
    stack = [(cap + 1, 0, 0, one)]  # (smallest part of lam, |lam|, l(lam), keyed bracket)
    while stack:
        last, n, length, prod = stack.pop()
        for part in range(min(last - 1, cap - n), 0, -1):
            for m in range(1, (cap - n) // part + 1):
                x = factors[part, m]
                # a zero factor zeroes every lam below it
                if not x:
                    continue
                size = n + part * m
                pair = (prod, x)
                if part > 1 and size < cap:  # room for a smaller part below it
                    pair = (mul_sum([pair], cap), one)
                    stack.append((part, size, length + m, pair[0]))
                slots.setdefault((size, length + m), []).append(pair)
    graded = {key: mul_sum(pairs, cap).symfunc() for key, pairs in slots.items()}
    return Series(cap, graded=graded)


def series_plethysm(F: Series, G: Series) -> Series:
    """F composed with G, degree by degree, up to the smaller cap."""
    cap = min(F.cap, G.cap)
    return Series(cap, plethysm(F.total(), G.total(), cap).homogeneous_parts())


def plethystic_inverse(G: Series) -> Series:
    """The series F with F o G = p_1 = G o F up to the cap of G."""
    cap = G.cap
    g1 = G.coeff(1)
    c = g1.coeff((1,))
    if not c or g1 != p(1).scale(c):
        raise ValueError("plethystic inverse needs an invertible degree-1 term c*p_1")
    powers = _Powers(G.total(), cap)
    pieces: dict[int, SymFunc] = {}  # F_n
    composed: dict[int, list[tuple[int, SymFunc]]] = {}  # degree-d parts of each F_j o G
    for n in range(1, cap + 1):
        want = p(1) if n == 1 else SymFunc.zero()
        resid = linear_sum([(1, want), *composed.get(n, [])])
        # resid = F_n[c * p_1], which scales p_lam by c^l(lam); undo that
        fn = pieces[n] = SymFunc({lam: v / c ** len(lam) for lam, v in resid.items()})
        if fn and n < cap:
            for d, f in powers.apply(fn).parts().items():
                composed.setdefault(d, []).append((-1, f))
    return Series(cap, pieces)


def restrict_ge2(F: Series) -> Series:
    """Zero the degree-1 slot; only legal when that slot is exactly p_1."""
    if F.coeff(1) != p(1):
        raise ValueError("restrict_ge2 requires degree-1 slot p_1")
    parts = {n: F.coeff(n) for n in range(2, F.cap + 1)}
    return Series(F.cap, parts)


# -- product formulas with a formal v marker ------------------------------------
#
# In prod_m (1 - p_m)^(g_m(v)) the coefficient of p_lam is
# prod_m (-1)^(k_m) binom(g_m, k_m)(v), where k_m is the multiplicity of m in
# lam.  Here g_m = G_m / m for an integer v-polynomial G_m built from psi,
# so binom(g_m, k) = G_m (G_m - m) ... (G_m - (k-1) m) / (m^k k!), and those
# denominators multiply to z_lam.  The coefficient of p_lam v^r is therefore
# (-1)^l(lam) [v^r] N_lam(v) / z_lam, with N_lam the product of the integer
# numerators.  A v-polynomial is a list of ints indexed by the power of v.


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _numerator_rows(psi, sign: int, cap: int) -> dict[int, list[list[int]]]:
    """{m: row}, row[k - 1] the numerator of binom(g_m, k) for m * k <= cap,
    with g_m = sign * f_m(v); m is left out where g_m = 0, as its factor is 1."""
    numers: dict[int, list[list[int]]] = {}
    for m in range(1, cap + 1):
        G = [0] * (m + 1)
        for d in divisors(m):
            G[m // d] += sign * psi(d)
        while G and not G[-1]:
            G.pop()
        if not G:
            continue
        row = [G]
        for k in range(1, cap // m):
            row.append(_poly_mul(row[-1], [-k * m] + G[1:]))
        numers[m] = row
    return numers


def _product_walk(psi, sign: int, cap: int) -> tuple[list[list[int]], list[list[tuple]]]:
    """(ones, by_size) for prod over m of (1 - p_m)^(sign * f_m(v)).

    by_size[s] lists (mu, N_mu, z_mu) over the partitions mu of s with no
    part 1 and a nonzero coefficient, walked depth first with parts
    descending, so a prefix's polynomial and z are shared by every mu that
    extends it.  ones[j] is the numerator of binom(g_1, j), ones[0] = [1].
    """
    numers = _numerator_rows(psi, sign, cap)
    ones = [[1], *numers.get(1, ())]
    by_size: list[list[tuple]] = [[] for _ in range(cap + 1)]
    stack: list[tuple[tuple, int, list[int], int]] = [((), 0, [1], 1)]  # mu, |mu|, N_mu, z_mu
    while stack:
        mu, n, poly, z = stack.pop()
        by_size[n].append((mu, poly, z))
        for m in range(2, min(mu[-1] - 1 if mu else cap, cap - n) + 1):
            row = numers.get(m)
            if row is None:
                continue
            zm = z
            for k in range(1, (cap - n) // m + 1):
                zm *= m * k
                stack.append((mu + (m,) * k, n + m * k, _poly_mul(poly, row[k - 1]), zm))
    return ones, by_size


def _degree_terms(walk, n: int) -> tuple[int, list[tuple[tuple, list[int], int]]]:
    """(den, [(lam, N_lam, den // z_lam)]) over the partitions lam = mu + 1^j
    of n in the walk, with den the lcm of their z_lam."""
    ones, by_size = walk
    if not 0 <= n < len(by_size):
        raise IndexError(f"degree {n} outside cap {len(by_size) - 1}")
    terms = []
    zj = 1  # j!
    for j in range(min(n, len(ones) - 1) + 1):
        zj *= j or 1
        for mu, poly, z in by_size[n - j]:
            terms.append((mu + (1,) * j, _poly_mul(poly, ones[j]) if j else poly, z * zj))
    den = lcm(*(z for _, _, z in terms))
    return den, [(lam, poly, den // z) for lam, poly, z in terms]


def product_form(walk, cap: int) -> Series:
    """Expand prod over m of (1 - p_m)^(sign * f_m(v)) as a length-graded Series,
    from walk = _product_walk(psi, sign, cap).

    f_m(v) = (1/m) sum over d | m of psi(d) v^(m/d).  sign -1 gives H(v)[F]
    and sign +1 gives E^+-(v)[F], for F the family of psi; SeriesContext.product
    derives the other variants from these two.
    """
    graded: dict[tuple[int, int], SymFunc] = {}
    for n in range(cap + 1):
        den, terms = _degree_terms(walk, n)
        slots: dict[int, dict[tuple, int]] = {}
        for lam, poly, q in terms:
            if len(lam) % 2:
                q = -q
            for r, c in enumerate(poly):
                if c:
                    slots.setdefault(r, {})[lam] = c * q
        for r, num in slots.items():
            graded[n, r] = _reduced(num, den)
    return Series(cap, graded=graded)


def _alternating_row(walk, n: int, by_length: bool) -> list[SymFunc]:
    """[t_0, ..., t_(n-1)] with t_k = x_k - t_(k-1), where x_k has the
    coefficient (+-)[v^(n-k)] N_lam / z_lam on p_lam: the sign is
    (-1)^l(lam) if by_length, else (-1)^k."""
    den, terms = _degree_terms(walk, n)
    rows: list[dict[tuple, int]] = [{} for _ in range(n)]
    for lam, poly, q in terms:
        s = -q if by_length and len(lam) % 2 else q
        t = 0
        for k in range(n):
            r = n - k
            t = (s * poly[r] if r < len(poly) else 0) - t
            if not by_length:
                s = -s
            if t:
                rows[k][lam] = t
    return [_reduced(num, den) for num in rows]


# -- convenience sums over restricted partition classes --------------------------


def p_sum_over(n: int, filter: str = "all") -> SymFunc:
    """sum of p_lam over partitions of n passing the named filter."""
    return SymFunc({lam: 1 for lam in partitions_of(n, filter)})


# -- the named constructions, sharing one cache per cap ---------------------------

# the family names: lie, lie2, conj, their degree >= 2 parts, and F_alt of each
_FAMILIES = {f + a for f in ("lie", "lie2", "conj", "lie_ge2", "lie2_ge2") for a in ("", "_alt")}
_WEIGHTS = ("mobius", "totient", "two_adic")  # the Psi constructors a product or walk key names


def _recipe(key) -> tuple[tuple, Callable]:
    """(sources, build) for a memo key: the keys its value is built from,
    and build(cap, *their values), which makes the value.  A key outside the
    formats of the SeriesContext docstring raises KeyError."""
    match key:
        case "lie" | "lie2" | "conj":
            # the builder is looked up at call time, so a rebound one is used
            return (), lambda cap: Series(
                cap, {n: getattr(lie_family, key)(n) for n in range(1, cap + 1)}
            )
        case "lie_ge2" | "lie2_ge2":
            return (key[:-4],), lambda cap, F: restrict_ge2(F)
        case str() if key in _FAMILIES:
            # F_alt, the sum of (-1)^(n-1) omega(f_n), is minus the twist of F
            return (key[:-4],), lambda cap, F: F.twist().scale(-1)
        case ("p_k", str(name)) if name in _FAMILIES:
            return (name,), lambda cap, F: _power_sums(F, cap)
        case ("H" | "E" as kind, str(name)) if name in _FAMILIES:
            return (("p_k", name),), lambda cap, pk: _outer_powers(kind, pk, cap)
        case ("Hpm" | "Epm" as kind, str(name)) if name in _FAMILIES:
            return ((kind[0], name),), lambda cap, A: _flip_v(A)
        case ("brackets", "H" | "E" as kind, str(name), False) if name in _FAMILIES:
            return (name,), lambda cap, F: bracket_sum(kind, F)
        case ("brackets", "H" | "E", str(name), True) if name in _FAMILIES:
            # the sign (-1)^(|lam| - l(lam)) negates the odd-corank slots
            return (key[:3] + (False,),), lambda cap, S: _negate_slots(S, lambda n, r: (n - r) % 2)
        case ("walk", str(w), 1 | -1 as sign) if w in _WEIGHTS:
            return (), lambda cap: _product_walk(getattr(Psi, w)(), sign, cap)
        case ("product", str(w), "sym" | "epm" as variant) if w in _WEIGHTS:
            sign = 1 if variant == "epm" else -1
            return (("walk", w, sign),), lambda cap, walk: product_form(walk, cap)
        case ("product", str(w), "hpm" | "ext" as variant) if w in _WEIGHTS:
            src = "sym" if variant == "hpm" else "epm"
            return (("product", w, src),), lambda cap, S: _flip_v(S)
        case ("product", str(w), "alt_sym" | "alt_ext" as variant) if w in _WEIGHTS:
            src = "hpm" if variant == "alt_sym" else "epm"
            return (("product", w, src),), lambda cap, S: S.twist()
        case ("conj_from", "lie" | "lie2" as name):
            step = 1 if name == "lie" else 2  # lie2 sums p_k over the odd k
            return (("p_k", name),), lambda cap, pk: Series(
                cap, linear_sum((1, f) for f in pk[::step]).homogeneous_parts()
            )
        case "kappa":
            # s_(n-1,1) = h_(n-1) h_1 - h_n, so no character tables are needed
            return (), lambda cap: Series(
                cap, {n: h(n - 1) * h(1) - h(n) for n in range(2, cap + 1)}
            )
        case "omega_kappa":
            return ("kappa",), lambda cap, K: K.map(lambda f: f.omega())
    raise KeyError(key)


class SeriesContext:
    """Lazy cache of the standard series and outer applications at one cap.

    get keeps each value in _memo under one key:

        "lie", "lie2", "conj"               family(name)
        "lie_ge2", "lie2_ge2"               family(name)
        F + "_alt", F one of the above      family(F + "_alt")
        (kind, name)                        app(kind, name), kind H, E, Hpm or Epm
        ("p_k", name)                       power_sums(name)
        ("brackets", kind, name, signed)    brackets(kind, name, signed)
        ("product", weight, variant)        product(Psi.<weight>(), variant)
        ("walk", weight, sign)              the partition walk the u and beta rows read
        ("conj_from", family)               conj_from(family)
        "kappa", "omega_kappa"              kappa(), omega_kappa()

    weight is mobius, totient or two_adic, and sign is 1 or -1.  A value may
    be built from others: ("Hpm", "lie") reads ("H", "lie"), which reads
    ("p_k", "lie"), which reads "lie".  _recipe states, once per key, the
    keys it is built from (sources) and how; get builds a value only from
    those.  release drops keys; a later read builds them again.
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self._memo: dict = {}

    def _get(self, key, build):
        val = self._memo.get(key)
        if val is None:
            val = build()
            self._memo[key] = val
        return val

    def get(self, key):
        """The value under key, built on first read from the values of its sources."""
        srcs, build = _recipe(key)
        return self._get(key, lambda: build(self.cap, *map(self.get, srcs)))

    def release(self, keys: Iterable) -> None:
        """Drop the values cached under keys, where there are any."""
        for key in keys:
            self._memo.pop(key, None)

    @staticmethod
    def sources(key) -> tuple:
        """The memo keys the value under key is built from; a key outside
        the formats above raises KeyError."""
        return _recipe(key)[0]

    # base families ------------------------------------------------------

    def family(self, name: str) -> Series:
        """The cached family lie, lie2 or conj, lie_ge2 or lie2_ge2 (degrees >= 2),
        or F_alt of any of these, the sum of (-1)^(n-1) omega(f_n)."""
        if name not in _FAMILIES:
            raise KeyError(name)
        return self.get(name)

    def app(self, kind: str, name: str) -> Series:
        """Cached H, E, Hpm or Epm of the named family.  H and E come from
        _outer_powers, the exponential recursion in the degree over the
        cached power sums; the signed kinds negate the odd-length slots of
        the cached H or E."""
        return self.get((kind, name))

    def power_sums(self, name: str) -> list[SymFunc]:
        """Cached [p_1[F], ..., p_cap[F]] for the named family F, shared by
        its H, E, conj_from and the registry's CONJ-FROM entries."""
        return self.get(("p_k", name))

    def brackets(self, kind: str, name: str, signed: bool = False) -> Series:
        """Cached bracket_sum over the named family, optionally with the
        (-1)^(|lam| - l(lam)) sign: the signed sum negates the odd-corank
        slots of the cached unsigned one."""
        return self.get(("brackets", kind, name, bool(signed)))

    def product(self, psi, variant: str) -> Series:
        """Cached prod over m of (1 -+ p_m)^(+-f_m(+-v)) for the weight named
        psi.name, one of mobius, totient and two_adic.

        Only "sym" (1 - p_m)^(-f_m(v)) and "epm" (1 - p_m)^(f_m(v)) are
        expanded.  "hpm" and "ext" put -v for v in them, which negates their
        odd-length slots, and "alt_sym" (1 + p_m)^(-f_m(-v)) and "alt_ext"
        (1 + p_m)^(f_m(v)) are the twists p_m -> -p_m of "hpm" and "epm".
        """
        if variant not in ("sym", "epm", "hpm", "ext", "alt_sym", "alt_ext"):
            raise ValueError(f"unknown product variant {variant!r}")
        return self.get(("product", psi.name, variant))

    # standard-representation generators ------------------------------------

    def kappa(self) -> Series:
        return self.get("kappa")

    def omega_kappa(self) -> Series:
        return self.get("omega_kappa")

    def iterate_generator(self, gen: Series) -> list[Series]:
        """Partial sums of gen + gen o gen + gen o (gen o gen) + ...

        Term j is the j-fold self-plethysm; with the generator supported in
        degrees >= 2, term j starts at degree 2^j, so the partial sums
        stabilize once 2^depth exceeds the cap.  The depth is the bit length
        of the cap, the least with 2^depth > cap, and at least 2, so that
        there are two sums to compare.
        """
        sums = []
        term = gen
        acc = gen
        for _ in range(max(2, self.cap.bit_length())):
            sums.append(acc)
            term = series_plethysm(gen, term)
            acc = acc + term
        return sums

    # single-value constructions ------------------------------------------

    def whitney(self, n: int, k: int) -> SymFunc:
        """Graded piece k of the partition-lattice invariant: omega(e_(n-k)[lie])|_n,
        read off the Mobius product E(v)[lie]."""
        if not 0 <= k <= n - 1:
            raise ValueError("whitney needs 0 <= k <= n-1")
        return self.product(Psi.mobius(), "ext").graded(n, n - k).omega()

    def vh(self, n: int, k: int) -> SymFunc:
        """h_(n-k)[lie2]|_n, read off the two-adic product H(v)[lie2]."""
        if not 0 <= k <= n - 1:
            raise ValueError("vh needs 0 <= k <= n-1")
        return self.product(Psi.two_adic(), "sym").graded(n, n - k)

    def u(self, n: int, k: int) -> SymFunc:
        """Truncated alternating sum vh(n,k) - vh(n,k-1) + ... +- vh(n,0)."""
        if not 0 <= k <= n - 1:
            raise ValueError("u needs 0 <= k <= n-1")
        return self.u_row(n)[k]

    def beta_rank(self, n: int, k: int) -> SymFunc:
        """Truncated alternating sum of whitney pieces (rank-selected homology)."""
        if not 0 <= k <= n - 1:
            raise ValueError("beta needs 0 <= k <= n-1")
        return self.beta_row(n)[k]

    def u_row(self, n: int) -> list[SymFunc]:
        """[u(n, 0), ..., u(n, n-1)] off the numerators of the two-adic
        product H(v)[lie2]: the coefficient of p_lam in u(n, k) is
        (-1)^l(lam) U_k / z_lam, with U_k = [v^(n-k)] N_lam - U_(k-1)."""
        return _alternating_row(self.get(("walk", "two_adic", -1)), n, by_length=True)

    def beta_row(self, n: int) -> list[SymFunc]:
        """[beta_rank(n, 0), ..., beta_rank(n, n-1)] off the numerators of the
        Mobius product E(v)[lie]: the coefficient of p_lam in beta(n, k) is
        (-1)^k B_k / z_lam, with B_k = [v^(n-k)] N_lam + B_(k-1), the sign
        coming from v -> -v and omega."""
        return _alternating_row(self.get(("walk", "mobius", 1)), n, by_length=False)

    def delta(self, n: int) -> SymFunc:
        """Injective-words homology: sum of (-1)^k p_1^(n-k) h_k, 0 <= k <= n."""
        if n < 0:
            raise ValueError("delta needs n >= 0")
        return linear_sum(((-1) ** (k % 2), p((1,) * (n - k)) * h(k)) for k in range(n + 1))

    def g_fn(self, n: int) -> SymFunc:
        """Dimension-zero virtual piece: sum of p_lam, parts powers of 2, no 1s."""
        return p_sum_over(n, "powers_of_two_and_no_1")

    def sigma(self, n: int) -> SymFunc:
        """One-dimensional virtual character sum of e_(n-2i) g_(2i)."""
        if n < 0:
            raise ValueError("sigma needs n >= 0")
        terms = []
        for i in range(0, n // 2 + 1):
            gpart = self.g_fn(2 * i)
            if gpart:
                terms.append((1, e(n - 2 * i) * gpart))
        return linear_sum(terms)

    def tau(self, n: int) -> SymFunc:
        """h_n - h_(n-2) p_2 (= s_(n-2,1,1) - s_(n-2,2) once n >= 4)."""
        if n < 0:
            raise ValueError("tau needs n >= 0")
        out = h(n)
        if n >= 2:
            out = out - h(n - 2) * p(2)
        return out

    def conj_from(self, family: str) -> Series:
        """sum of p_k[lie] over k >= 1, or p_(2k-1)[lie2] over k >= 1."""
        if family not in ("lie", "lie2"):
            raise ValueError("family must be 'lie' or 'lie2'")
        return self.get(("conj_from", family))
