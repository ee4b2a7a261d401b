"""Murnaghan-Nakayama character columns, built forward on bead bitmasks.

The column of mu is the vector {lam: chi^lam(mu)} over the partitions lam
of |mu|.  It is built from the empty shape by adding one border strip per
part of mu, smallest part first: the column of a prefix rho extended by a
part k is

    chi^lam(rho + k) = sum over lam = nu + (k-strip) of (-1)^height chi^nu(rho)

(Macdonald, Symmetric Functions and Hall Polynomials, I.7).  A column is
built from the longest ascending prefix of mu in _memo, so the rectangle
(d^m) is one strip away from (d^(m-1)).  Values are Python ints, exact at
every degree.  The one store rule: keyed_column stores the column of mu in
place of the prefix it was built from, and nothing in between.  So a chain
of reads that each extend the one before keeps one column, and the walk in
schur._expand, which adds strips to whole vectors, leaves no full table at
a dense degree.  Stored columns are never changed, so a caller holding a
dropped one still holds a valid column, and a dropped column is rebuilt
exactly.  The whitehouse scan keeps columns of its own, at one shape of
each conjugate pair (_half_strips), and does not use _memo.

Columns are keyed by bead bitmasks.  A partition lam of length L is the
int mask(lam) = sum over rows i = 1..L of 2^(lam_i + L - i): one bead per
row, at its beta-number, and the empty shape is 0.  The lowest bead sits
at lam_L >= 1, so bit 0 is always clear and each partition has exactly one
mask.  A part lam_i is the number of clear bits below its bead, which is
how decode reads a mask back.  Adding a k-strip moves one bead up by k
places onto a clear bit, and the strip's height is the number of beads it
jumps (Macdonald I.1 Ex. 8).  Conjugation reverses the bits below the top
bead and complements them (conjugate).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

KERNEL_NAME = "pure-python"

# ascending prefix of a cycle type -> {mask(lam): chi^lam(prefix)}, zeros dropped
_memo: dict[tuple, dict[int, int]] = {}


def encode(lam: tuple) -> int:
    """The bead bitmask of the partition lam."""
    top = len(lam) - 1
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + top - i)
    return mask


def decode(mask: int) -> tuple:
    """The partition whose bead bitmask is mask.

    Below the top bead, bin(mask) splits on "1" into the runs of clear bits
    under each bead; a part is the sum of the runs below its bead.
    """
    runs = bin(mask)[2:].split("1")[:0:-1]
    return tuple(accumulate(map(len, runs)))[::-1]


def _add_strips(
    col: dict[int, int], k: int, out: dict[int, int] | None = None, above_top: bool = False
) -> dict[int, int]:
    """The column after one more part k: every k-strip added to every shape.

    Padding a mask with k empty rows is m' = (m << k) | (2^k - 1).  The
    beads that can move are the set bits b of m' with bit b + k clear,
    m' & ~(m' >> k), and a move is m' ^ 2^b ^ 2^(b+k).  Its sign is the
    parity of the beads on bits b+1 .. b+k-1.  The trailing ones of the
    result are empty rows and are shifted off.  Bit 0 of m is clear, so m'
    has exactly k trailing ones: a move keeps them all when b >= k and
    keeps b of them when b < k.  A 1-strip jumps no bead and needs no
    padding: each bead of m with a clear bit above moves up one place,
    m + 2^b, and the one new row is (m << 1) | 2.

    With above_top, only the moves whose bead lands above the top bead of
    m' are made, the b >= top - k + 1: the strips that reach the first row.
    For k = 1 that is the top bead alone, or the new row of the empty shape.

    The map is linear in col, which may be any vector over masks of one
    degree.  Given out, the moves are added into out, which is returned
    with any zeros it gains; otherwise a new dict without zeros is.
    """
    acc: dict[int, int] = {} if out is None else out
    get = acc.get
    if k == 1 and above_top:
        for m, v in col.items():
            new = m + (1 << (m.bit_length() - 1)) if m else 2
            acc[new] = get(new, 0) + v
    elif k == 1:
        for m, v in col.items():
            free = m & ~(m >> 1)
            while free:
                low = free & -free
                free ^= low
                new = m + low
                acc[new] = get(new, 0) + v
            new = (m << 1) | 2
            acc[new] = get(new, 0) + v
    else:
        ones = (1 << k) - 1
        for m, v in col.items():
            m = (m << k) | ones
            free = m & ~(m >> k)
            if above_top:
                free &= -1 << (m.bit_length() - k)
            while free:
                low = free & -free
                free ^= low
                up = low << k
                new = (m ^ low ^ up) >> (k if low > ones else low.bit_length() - 1)
                odd = (m & (up - (low << 1))).bit_count() & 1
                acc[new] = get(new, 0) + (-v if odd else v)
    return acc if out is not None else {m: v for m, v in acc.items() if v}


def conjugate(mask: int) -> int:
    """The mask of the conjugate of the partition whose mask is mask.

    Read from bit 0 up to the top bead, the bits trace the rim of lam: a
    clear bit is a step along a row and a set bit a step up a column.
    Conjugation reverses the rim and swaps the two kinds of step, so the
    conjugate is the bit reversal of bits 0 .. top, complemented.
    """
    return ((1 << mask.bit_length()) - 1) ^ int(bin(mask)[:1:-1], 2)


def _half_strips(half: dict[int, int], k: int, flip: Callable[[int], int]) -> dict[int, int]:
    """_add_strips(col, k) at the reps, given col at the reps.

    A rep is a shape lam with lam_1 >= l(lam), the mask with bit_length at
    least twice its bit_count (lam_1 + l(lam) and l(lam)).  col is a vector
    whose value at lam' is flip of its value at lam, and half holds it at
    the reps.  A k-strip onto a rep mu starts at a rep or at a nu with
    0 < l(nu) - nu_1 <= k, since mu_1 <= nu_1 + k and l(mu) >= l(nu); so
    the reps and the conjugates of the band reps, 0 < lam_1 - l(lam) <= k,
    carrying flip of their value, are all the moves.  From such a nu only
    the strips that reach the first row can land on a rep: any other keeps
    mu_1 = nu_1 and l(mu) >= l(nu) > nu_1, so the band moves are made with
    _add_strips(..., above_top=True), and for k = 1 that is one move per
    band shape.  Values that land on shapes that are not reps are dropped,
    as are zeros.
    """
    out: dict[int, int] = {}
    _add_strips(half, k, out)
    band = {
        conjugate(m): flip(v)
        for m, v in half.items()
        if 0 < m.bit_length() - 2 * m.bit_count() <= k
    }
    _add_strips(band, k, out, above_top=True)
    return {m: v for m, v in out.items() if v and m.bit_length() >= 2 * m.bit_count()}


def keyed_column(mu: tuple) -> dict[int, int]:
    """{mask(lam): chi^lam(mu)} for the lam where it is nonzero.

    mu is a partition.  The column is built from the longest ascending
    prefix of mu in _memo and stored in place of it.  The result is the
    memoized column itself, so callers must not change it.  Its readers
    are schur.character, symfunc.s and the small children of the Schur
    walk; the whitehouse scan builds its rectangle columns by _half_strips.
    """
    parts = mu[::-1]
    k = len(parts)
    while k and parts[:k] not in _memo:
        k -= 1
    col = _memo[parts[:k]] if k else {0: 1}
    if k < len(parts):
        _memo.pop(parts[:k], None)
        for part in parts[k:]:
            col = _add_strips(col, part)
        _memo[parts] = col
    return col
