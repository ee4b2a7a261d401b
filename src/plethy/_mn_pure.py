"""Murnaghan-Nakayama character columns, built forward.

The column of mu is the vector {lam: chi^lam(mu)} over the partitions lam
of |mu|.  It is built from the empty shape by adding one border strip per
part of mu, smallest part first: the column of a prefix rho extended by a
part k is

    chi^lam(rho + k) = sum over lam = nu + (k-strip) of (-1)^height chi^nu(rho)

(Macdonald, Symmetric Functions and Hall Polynomials, I.7).  _memo keeps
the column of every ascending prefix, so cycle types that share their
small parts share the work: the rectangle (d^m) is one strip away from
(d^(m-1)).  Values are Python ints, exact at every degree.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import sub
from types import MappingProxyType

KERNEL_NAME = "pure-python"

# ascending prefix of a cycle type -> {lam: chi^lam(prefix)}, zeros dropped
_memo: dict[tuple, dict[tuple, int]] = {}


def _add_strips(col: dict[tuple, int], k: int) -> dict[tuple, int]:
    """The column after one more part k: every k-strip added to every shape.

    On beta-numbers lam_r + (L - 1 - r), with lam padded by k zero rows, a
    k-strip moves the bead of row i up by k.  With d_r = lam_r - r the bead
    lands in row j, the first row with d_j < d_i + k, and is blocked if
    some d_j == d_i + k.  Row j gets the part d_i + k + j, the rows j..i-1
    it jumps shift down by one and grow by one, and the strip's height is
    i - j.
    """
    out: dict[tuple, int] = {}
    get = out.get
    zeros = (0,) * k
    one = (1).__add__
    for lam, v in col.items():
        pad = lam + zeros
        inc = tuple(map(one, pad))
        d = list(map(sub, pad, range(len(pad))))
        j = 0
        for i, di in enumerate(d):
            t = di + k
            while d[j] > t:
                j += 1
            if d[j] == t:
                continue
            new = lam[:j] + (t + j,) + inc[j:i] + lam[i + 1 :]
            out[new] = get(new, 0) + (-v if (i - j) & 1 else v)
    return {lam: v for lam, v in out.items() if v}


def mn_column(mu: tuple) -> Mapping[tuple, int]:
    """{lam: chi^lam(mu)} for the lam where it is nonzero.

    mu is a partition.  The result is a read-only view of the memoized
    column.  Each column is stored only once it is complete, so threads
    that race on one prefix at worst build it twice.
    """
    parts = mu[::-1]
    k = len(parts)
    while k and parts[:k] not in _memo:
        k -= 1
    col = _memo[parts[:k]] if k else {(): 1}
    for k in range(k, len(parts)):
        col = _add_strips(col, parts[k])
        _memo[parts[: k + 1]] = col
    return MappingProxyType(col)
