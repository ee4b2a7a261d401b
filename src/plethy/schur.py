"""Symmetric-group characters, the Schur-basis view and positivity.

Characters come from one builder, plethy._mn_pure, which runs the
Murnaghan-Nakayama rule forward and returns whole columns {lam: chi^lam(mu)},
memoized for the life of the process and keyed by the bead bitmask of lam
(see plethy._mn_pure): a border strip is a bit move there.  _expand
expands a packed batch of functions of one degree by a Horner walk over the
trie of their support: the integer numerators of the batch at mu are one
int C_mu, one field of w bits per function, and the walk adds border
strips to vectors of packed ints, so each strip serves the whole batch and
a dense support never builds a full character table.  w is exact, not a
guess: |chi^lam(mu)| <= isqrt(z_mu) by column orthogonality, which bounds
every field.  _pack_rows packs a batch given as rows of numerators; the
u and beta scans hand it their running sums, and _pack hands it SymFuncs.
Two readers take the sums: to_schur_many decodes and sorts every shape
whose sum is nonzero, and is_schur_positive_packed streams each field
through _verdict, the one positivity rule, which decodes only the shapes
it names.  to_schur, is_schur_positive and is_schur_positive_many read
SymFuncs through _pack.  deficit_positivity scans the whitehouse deficit
p_1 f_(n-1) - f_n degree by degree without _expand: each shape carries its
Schur numerators from one degree to the next, so p_1 f_(n-1) costs one
1-strip pass, the rectangles (d^m) are its only characters, and _verdict
gets the few negative or non-integral numerators of each degree.  It holds
only one shape of each conjugate pair, and the rectangles as half columns
of its own, with _mn_pure._half_strips.
character() reads one entry of a column through the mask of lam.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import factorial, gcd, isqrt
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from . import _mn_pure
from .partitions import check_partition, conjugate, divisors, exponent_str, format_partition, z_of
from .symfunc import SymFunc, _fields


def kernel_name() -> str:
    """Name of the character builder, as reported by the benchmark harness."""
    return _mn_pure.KERNEL_NAME


def character(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu), read from the memoized column of mu."""
    lam = check_partition(tuple(lam))
    mu = check_partition(tuple(mu))
    if sum(lam) != sum(mu):
        raise ValueError(
            f"size mismatch: {format_partition(lam)} vs {format_partition(mu)}"
        )
    return _mn_pure.keyed_column(mu).get(_mn_pure.encode(lam), 0)


class NotVirtualCharacter(ValueError):
    """Raised when a Schur coefficient fails to be an integer."""

    def __init__(self, lam: tuple, coeff: Fraction):
        self.partition = lam
        self.coeff = coeff
        super().__init__(
            f"not a virtual character: coefficient of s{format_partition(lam)} is {coeff}"
        )


class SchurExpansion(NamedTuple):
    """Integer Schur-basis expansion of a homogeneous virtual character."""

    degree: int
    terms: tuple[tuple[tuple, int], ...]  # ((partition, coeff), ...) canonical order

    def coeff(self, lam: tuple) -> int:
        for mu, c in self.terms:
            if mu == lam:
                return c
        return 0

    def dimension(self) -> int:
        return sum(c * hook_dimension(lam) for lam, c in self.terms)

    def to_dict(self) -> dict:
        return {
            "basis": "s",
            "degree": self.degree,
            "terms": [
                {"partition": list(lam), "coeff": str(c)} for lam, c in self.terms
            ],
        }

    def exponent_str(self) -> str:
        """Cell form used by the printed tables, e.g. (3,1)+2(2^2,1)."""
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.terms:
            prefix = "" if c == 1 else str(c)
            bits.append(prefix + exponent_str(lam))
        return "+".join(bits)

    def __str__(self) -> str:
        return self.exponent_str()


def to_schur(f: SymFunc) -> SchurExpansion:
    """Expand a homogeneous p-basis function in the Schur basis.

    The one-element call of to_schur_many; a non-integer coefficient is a
    hard error flagging an input that is not a virtual character.
    """
    return next(to_schur_many([f]))


def to_schur_many(fs: Iterable[SymFunc]) -> Iterator[SchurExpansion]:
    """Yield the Schur expansions of nonzero functions of one degree, in order.

    The shapes of _expand are decoded and sorted once, in descending tuple
    order (the canonical order within one degree); each expansion is then
    read off only when it is asked for, so a function that is not a virtual
    character raises NotVirtualCharacter, naming the first lam in that
    order, after every expansion before it has been yielded.
    """
    fs = list(fs)
    if not fs:
        return
    if not all(fs):
        raise ValueError("to_schur needs a nonzero homogeneous function (got 0)")
    masks, columns = _expand(*_pack(fs))
    order = sorted(zip(map(_mn_pure.decode, masks), range(len(masks))), reverse=True)
    n = fs[0].degree()
    for den, column in columns:
        out: list[tuple[tuple, int]] = []
        for lam, i in order:
            if column[i]:
                q, r = divmod(column[i], den)
                if r:
                    raise NotVirtualCharacter(lam, Fraction(column[i], den))
                out.append((lam, q))
        yield SchurExpansion(n, tuple(out))


def _pack(fs: list[SymFunc]) -> tuple[list[tuple[tuple, int]], int, list[int]]:
    """_pack_rows of functions of one degree, over the union of their supports."""
    if len({f.degree() for f in fs if f}) > 1:
        raise ValueError("to_schur_many needs functions of one degree")
    mus = list(dict.fromkeys(mu for f in fs for mu in f._num))
    rows = [[f._num.get(mu, 0) for mu in mus] for f in fs]
    return _pack_rows([(mu, z_of(mu)) for mu in mus], rows, [f._den for f in fs])


def _pack_rows(mus: list[tuple[tuple, int]], rows: list[list[int]], dens: list[int]) -> tuple:
    """(pairs, w, dens): the packed batch of the functions f_j of one degree
    with the coefficient rows[j][i] / dens[j] on p_mu, for (mu, z_mu) =
    mus[i].  Each f_j goes in lowest terms, its row over g_j =
    gcd(dens[j], rows[j]) and its den dens[j] / g_j; a row of zeros gets
    den 0 and no field.  pairs lists the nonzero C_mu = sum_j c_j(mu)
    2^(w j), one field per remaining function, in order; rows is emptied.

    The width w comes from an exact bound.  Column orthogonality gives
    sum_lam chi^lam(mu)^2 = z_mu, so |chi^lam(mu)| <= isqrt(z_mu), and every
    Schur numerator of f_j is at most b_j = sum_mu |c_j(mu)| isqrt(z_mu) in
    size; w - 1 is the bit length of the largest b_j, so each field of the
    walk lies in [-2^(w-1), 2^(w-1)).  Its inner vectors obey the bound
    too, since a node rho holds sum_mu C_mu chi^lam(mu - rho) and
    z_nu <= z_mu when the parts of nu are some of the parts of mu.
    """
    roots = [isqrt(z) for _, z in mus]
    gs = [gcd(den, *t) if any(t) else 0 for den, t in zip(dens, rows)]  # 0: a zero function
    bounds = [sum(map(mul, map(abs, t), roots)) // g for g, t in zip(gs, rows) if g]
    w = max(bounds, default=0).bit_length() + 1
    packed = [0] * len(mus)
    for g in reversed(gs):
        t = rows.pop()  # each row is freed once it is packed
        if g:
            packed = [(c << w) + x // g for c, x in zip(packed, t)]
    dens = [den // g if g else 0 for den, g in zip(dens, gs)]
    return [(mu, c) for (mu, _), c in zip(mus, packed) if c], w, dens


def _expand(terms: list[tuple[tuple, int]], w: int, dens: list[int]) -> tuple[list[int], Iterator]:
    """(masks, columns) for a packed batch (_pack_rows): masks are the
    shapes lam where acc[lam] = sum_mu C_mu chi^lam(mu) is nonzero, and
    columns yields, for each nonzero den in order, (den, field j of acc at
    each mask), the numerators of f_j's coefficients of s_lam over den.

    acc comes from a walk over the support as a trie over descending parts.
    p_k s_nu is the signed sum of s_lam over the k-strips lam/nu (Macdonald
    I.3 Ex. 11), so if F_k holds the terms whose largest part is k, with
    that part removed, then S(f) = sum_k P_k S(F_k), where P_k adds every
    k-strip (one _mn_pure._add_strips call).  Applied at every node this is
    a Horner scheme: a node's vector is its own C_mu at the empty shape plus
    P_k of each child k's vector, and the root's vector is acc.  A child
    with at most two terms is not walked: each of its terms adds C_mu times
    the memoized column of mu less the node's prefix.  The deep children of
    the dense u and beta rows are mostly that small, and at the root the
    column is all of mu, so a sparse support, such as that of
    compute lie n --basis s, reads the same columns as one term at a time
    would.
    """
    acc = _walk(terms, 0)
    masks = [mask for mask, t in acc.items() if t]
    totals = [t for t in acc.values() if t]
    del acc
    dens = [den for den in dens if den]
    return masks, zip(dens, _fields(totals, w, len(dens)))


def _walk(terms: list[tuple[tuple, int]], depth: int) -> dict[int, int]:
    """{mask(lam): sum of c chi^lam(mu[depth:])} over the (mu, c) in terms.

    The mu are distinct partitions of one degree that share their first
    depth parts: a node of the support trie.  A term that ends here is the
    empty shape; a child k holding three or more terms is walked and its
    vector gets every k-strip, and each term of a smaller child reads the
    memoized column of mu[depth:] through keyed_column.
    """
    out: dict[int, int] = {}
    children: defaultdict[int, list[tuple[tuple, int]]] = defaultdict(list)
    for mu, c in terms:
        if len(mu) > depth:
            children[mu[depth]].append((mu, c))
        else:
            out[0] = c
    get = out.get
    for k, group in children.items():
        if len(group) > 2:
            _mn_pure._add_strips(_walk(group, depth + 1), k, out)
        else:
            for mu, c in group:
                for mask, chi in _mn_pure.keyed_column(mu[depth:]).items():
                    out[mask] = get(mask, 0) + c * chi
    return out


class Positivity(NamedTuple):
    """Outcome of a Schur-positivity test; witness is the most negative term."""

    positive: bool
    witness_partition: tuple | None = None
    witness_coeff: int | None = None

    def __bool__(self) -> bool:  # a tuple of three fields is always truthy
        return self.positive


def is_schur_positive(f: SymFunc) -> Positivity:
    return next(is_schur_positive_many([f]))


def is_schur_positive_many(fs: Iterable[SymFunc]) -> Iterator[Positivity]:
    """Yield is_schur_positive(f) for each f, from one packed batch (_pack)."""
    yield from is_schur_positive_packed(*_pack(list(fs)))


def is_schur_positive_packed(terms: list, w: int, dens: list[int]) -> Iterator[Positivity]:
    """Yield the Positivity of each function of a packed batch (_pack_rows),
    in order: one _expand walk, whose fields go one at a time through
    _verdict; a den of 0 is a zero function, which is positive."""
    masks, columns = _expand(terms, w, dens)
    for den in dens:
        yield _verdict(zip(masks, next(columns)[1]), den) if den else Positivity(True)


def _verdict(pairs: Iterable[tuple[int, int]], den: int) -> Positivity:
    """The Positivity of a function whose coefficient of s_lam is num / den,
    read from (mask(lam), num) pairs that hold every negative num and every
    num that den does not divide.  The witness is the least num, at the
    largest of the shapes that reach it, and NotVirtualCharacter names the
    largest shape whose num den does not divide, as to_schur_many would."""
    decode = _mn_pure.decode
    low, ties, bad = -1, [], []
    for mask, v in pairs:
        if v <= low:
            if v < low:
                low, ties = v, []
            ties.append(mask)
        if v % den:
            bad.append((decode(mask), v))
    if bad:
        lam, v = max(bad)
        raise NotVirtualCharacter(lam, Fraction(v, den))
    return Positivity(False, max(map(decode, ties)), low // den) if ties else Positivity(True)


def deficit_positivity(psi: Callable[[int], int], max_n: int) -> Iterator[Positivity]:
    """Yield the Positivity of p_1 f_(n-1) - f_n for n = 2 .. max_n, where
    f_n = (1/n) sum_(d|n) psi(d) p_d^(n/d): the whitehouse deficit of psi.

    With f^lam = chi^lam(1^n) and R_n = sum_(d|n, d>1) psi(d) chi(d^(n/d)),
    the coefficient of s_lam is N_n[lam] / (n(n-1)), where

        N_n[lam] = psi(1) f^lam + n Ind(R_(n-1))[lam] - (n-1) R_n[lam]

    and Ind(g)[lam] = sum_(mu = lam - box) g[mu] is p_1 times g, the
    branching rule (Macdonald I.7); it also gives f^lam = Ind(f)[lam].  So
    each degree is one 1-strip pass over the last.  Since f^lam' = f^lam
    and chi^lam'(mu) = sgn(mu) chi^lam(mu) (I.7), the scan holds only the
    reps, the shapes with lam_1 >= l(lam) (see _mn_pure._half_strips), and
    each rep carries f^mu, R_(n-1)[mu] and R_(n-1)[mu'] packed in one int
    (_unpack).  Swapping the two R fields gives the value at mu', so one
    half 1-strip pass gives f^lam, Ind(R_(n-1))[lam] and Ind(R_(n-1))[lam']
    at every rep lam of n.  The only columns read are the rectangles
    (d^m), d > 1, kept as half columns with flip sgn(d^m) while the scan
    runs, so _mn_pure._memo is neither read nor written.

    One pass over the reps of n then computes N_n at lam and, when
    lam_1 > l(lam), at lam', keeps the (mask, N_n) pairs that are negative
    or that n(n-1) does not divide, and writes the rep's packed value for
    degree n+1 back into the same dict; _verdict reads the verdict off the
    kept pairs.  Two ledgers check each degree by column orthogonality.
    Over all lam, sum f^lam N_n[lam] is psi(1) n! (n(n-1) times the
    dimension psi(1) (n-2)! of the deficit), and over the hooks,
    sum_b (-1)^b N_n[(n-b, 1^b)] is -n(n-1) psi(n), the pairing with
    p_n; the second is odd under conjugation when n is even, so it sees a
    defect that the first, even, one misses.  Any other sum raises
    ValueError, before integrality is checked, so a wrong character column
    is reported as one.
    """
    psi1 = psi(1)
    fact, (wf, wr) = 1, _layout(psi, 2)
    packed = {_mn_pure.encode((1,)): 1}  # degree 1: f^(1) = 1 and R_1 = 0
    chains: dict[int, dict[int, int]] = {}  # d -> half column of (d^(n/d))
    for n in range(2, max_n + 1):
        fact *= n
        packed = _mn_pure._half_strips(packed, 1, lambda v: _swap(v, wf, wr))
        wf_next, wr_next = _layout(psi, n + 1)
        r_n: dict[int, int] = {}  # R_n at lam + R_n at lam' 2^wr_next, at each rep lam
        for d in divisors(n)[1:]:
            c = psi(d)
            if not c:
                continue
            eps = (-1) ** ((d - 1) * (n // d - 1))  # the flip of (d^(n/d - 1)), its sign
            col = _mn_pure._half_strips(chains.pop(d, {0: 1}), d, lambda v: eps * v)
            if n + d <= max_n:
                chains[d] = col
            c += c * eps * (-1) ** (d - 1) << wr_next  # psi(d) sgn(d^(n/d)), the weight at lam'
            for mask, chi in col.items():
                r_n[mask] = r_n.get(mask, 0) + c * chi
        den, low, get = n * (n - 1), (1 << wf) - 1, r_n.get
        half, r_mask = 1 << (wr - 1), (1 << wr) - 1
        half_next, r_mask_next = 1 << (wr_next - 1), (1 << wr_next) - 1
        hook_sign = {  # (-1)^b at the reps among the hooks (n-b, 1^b)
            (1 << n) | ((1 << (b + 1)) - 2): (-1) ** b for b in range((n + 1) // 2)
        }
        conj_sign = (-1) ** (n - 1)  # the sign of hook n-1-b, the conjugate of b, over b's
        kept, ledger, hooks = [], 0, 0
        for mask, v in packed.items():
            x = get(mask, 0)
            f, t, u = v & low, (v >> wf) + half, x + half_next
            num = psi1 * f + n * ((t & r_mask) - half) - (n - 1) * ((u & r_mask_next) - half_next)
            ledger += f * num
            if num < 0 or num % den:
                kept.append((mask, num))
            s = hook_sign.get(mask)
            if s:
                hooks += s * num
            if mask.bit_length() > 2 * mask.bit_count():
                num = psi1 * f + n * (t >> wr) - (n - 1) * (u >> wr_next)
                ledger += f * num
                if num < 0 or num % den:
                    kept.append((_mn_pure.conjugate(mask), num))
                if s:
                    hooks += s * conj_sign * num
            packed[mask] = f + (x << wf_next)
        if ledger != psi1 * fact:
            raise ValueError(
                f"dimension ledger fails at n={n}: sum of f^lam N_n(lam) is {ledger}, "
                f"not psi(1) n! = {psi1 * fact}"
            )
        if hooks != -den * psi(n):
            raise ValueError(
                f"hook ledger fails at n={n}: sum of (-1)^b N_n(n-b, 1^b) is {hooks}, "
                f"not -n(n-1) psi(n) = {-den * psi(n)}"
            )
        wf, wr = wf_next, wr_next
        yield _verdict(kept, den)


def _layout(psi: Callable[[int], int], n: int) -> tuple[int, int]:
    """(wf, wr): the widths of the fields f^lam and R of the packed ints
    that deficit_positivity moves into degree n by its 1-strip pass.

    Column orthogonality gives sum_lam (f^lam)^2 = n!, so f^lam <=
    isqrt(n!) fits the wf unsigned bits.  It also gives |chi^mu(d^m)| <=
    isqrt(z_(d^m)) = isqrt(d^m m!), so |R_(n-1)[mu]| <= T, the sum of
    |psi(d)| isqrt(d^m m!) over d | n-1, d > 1, with m = (n-1)/d.
    Ind(R_(n-1))[lam] sums R_(n-1) over the removable corners of lam, and a
    shape of n with c corners has at least c(c+1)/2 boxes, so c <=
    (isqrt(8n+1) - 1) // 2 and c T bounds every R field before and after
    the pass; wr holds it with a sign bit.
    """
    corners = (isqrt(8 * n + 1) - 1) // 2
    bound = sum(abs(psi(d)) * isqrt(z_of((d,) * ((n - 1) // d))) for d in divisors(n - 1)[1:])
    return isqrt(factorial(n)).bit_length(), (corners * bound).bit_length() + 1


def _swap(v: int, wf: int, wr: int) -> int:
    """The packed value at lam' given the one at lam: the R fields swapped."""
    f, a, b = _unpack(v, wf, wr)
    return f + (b << wf) + (a << (wf + wr))


def _unpack(v: int, wf: int, wr: int) -> tuple[int, int, int]:
    """(f, a, b) from v = f + a 2^wf + b 2^(wf+wr), with f in [0, 2^wf) and
    a in [-2^(wr-1), 2^(wr-1))."""
    half = 1 << (wr - 1)
    t = (v >> wf) + half
    return v & ((1 << wf) - 1), (t & ((1 << wr) - 1)) - half, t >> wr


def hook_dimension(lam: tuple) -> int:
    """Number of standard tableaux of shape lam (hook-length formula)."""
    lam = check_partition(tuple(lam))
    if not lam:
        return 1
    conj = conjugate(lam)
    num = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            num //= (row - j) + (conj[j] - i) - 1
    return num
