"""Symmetric-group characters, the Schur-basis view and positivity.

Characters come from one builder, plethy._mn_pure, which runs the
Murnaghan-Nakayama rule forward and returns whole columns {lam: chi^lam(mu)},
memoized for the life of the process and keyed by the bead bitmask of lam
(see plethy._mn_pure): a border strip is a bit move there.  to_schur sums
the columns of the cycle types in the support of its input over those int
keys and decodes only the shapes whose sum is nonzero; character() reads
one entry of a column through the mask of lam.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _mn_pure
from .partitions import check_partition, conjugate, format_partition
from .symfunc import SymFunc


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


@dataclass(frozen=True)
class SchurExpansion:
    """Integer Schur-basis expansion of a homogeneous virtual character."""

    degree: int
    terms: tuple[tuple[tuple, int], ...]  # ((partition, coeff), ...) canonical order

    def coeff(self, lam: tuple) -> int:
        for mu, c in self.terms:
            if mu == lam:
                return c
        return 0

    def as_dict(self) -> dict[tuple, int]:
        return dict(self.terms)

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
        from .partitions import exponent_str

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

    Coefficient of s_lam is sum_mu c_mu(f) chi^lam(mu), summed over the
    character columns of the mu in the support of f; a non-integer result
    is a hard error flagging an input that is not a virtual character.  The
    sums run over bead-bitmask keys, and only the lam with a nonzero sum are
    decoded and sorted.
    """
    if not f:
        raise ValueError("to_schur needs a nonzero homogeneous function (got 0)")
    n = f.degree()
    nums, den = f._int_terms()
    acc: defaultdict[int, int] = defaultdict(int)
    for mu, c in nums.items():
        for mask, chi in _mn_pure.keyed_column(mu).items():
            acc[mask] += c * chi
    decode = _mn_pure.decode
    out: list[tuple[tuple, int]] = []
    # descending tuple order is the canonical order within one degree
    for lam, total in sorted(
        ((decode(mask), total) for mask, total in acc.items() if total), reverse=True
    ):
        q, r = divmod(total, den)
        if r:
            raise NotVirtualCharacter(lam, Fraction(total, den))
        out.append((lam, q))
    return SchurExpansion(n, tuple(out))


@dataclass(frozen=True)
class Positivity:
    """Outcome of a Schur-positivity test; witness is the most negative term."""

    positive: bool
    witness_partition: tuple | None = None
    witness_coeff: int | None = None

    def __bool__(self) -> bool:
        return self.positive


def is_schur_positive(f: SymFunc) -> Positivity:
    if not f:
        return Positivity(True)
    expansion = to_schur(f)
    worst = None
    for lam, c in expansion.terms:
        if c < 0 and (worst is None or c < worst[1]):
            worst = (lam, c)
    if worst is None:
        return Positivity(True)
    return Positivity(False, worst[0], worst[1])


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
