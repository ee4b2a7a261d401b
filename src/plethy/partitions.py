"""Integer partitions and small number-theoretic helpers.

A partition is a plain tuple of weakly decreasing positive integers, so it
can be used directly as a dict key.  The empty partition is ``()``.  All
enumeration follows one canonical order, reverse-lexicographic, e.g. for
n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "is_partition",
    "check_partition",
    "partitions_of",
    "multiplicities",
    "z_of",
    "conjugate",
    "mobius",
    "totient",
    "divisors",
    "two_adic_part",
    "format_partition",
    "exponent_str",
]

FILTERS = ("all", "parts_powers_of_two", "powers_of_two_and_no_1")


def is_partition(lam) -> bool:
    """True if lam is a tuple of weakly decreasing positive integers."""
    if not isinstance(lam, tuple):
        return False
    for i, part in enumerate(lam):
        if not isinstance(part, int) or part < 1:
            return False
        if i and lam[i - 1] < part:
            return False
    return True


def check_partition(lam) -> tuple:
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _passes(lam: tuple, which: str) -> bool:
    if which == "all":
        return True
    if which == "parts_powers_of_two":
        return all(_is_power_of_two(part) for part in lam)
    if which == "powers_of_two_and_no_1":
        return 1 not in lam and all(_is_power_of_two(part) for part in lam)
    raise ValueError(f"unknown partition filter {which!r}")


def _gen_partitions(n: int):
    """Yield partitions of n in reverse-lexicographic order, (n,) first."""
    if n == 0:
        yield ()
        return
    lam = (n,)
    yield lam
    while True:
        # rightmost part > 1
        i = len(lam) - 1
        while i >= 0 and lam[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(lam) - i  # total to redistribute, as (lam[i]-1)-bounded parts
        lam = lam[:i] + (lam[i] - 1,)
        while rest > 0:
            part = min(lam[-1], rest)
            lam += (part,)
            rest -= part
        yield lam


@lru_cache(maxsize=None)
def partitions_of(n: int, filter: str = "all") -> tuple[tuple[int, ...], ...]:
    """All partitions of n passing the named filter, in canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if filter not in FILTERS:
        raise ValueError(f"unknown partition filter {filter!r}")
    return tuple(lam for lam in _gen_partitions(n) if _passes(lam, filter))


def multiplicities(lam: tuple) -> dict[int, int]:
    """Map part value -> multiplicity."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def z_of(lam: tuple) -> int:
    """Centralizer order of a permutation of cycle type lam: prod i^m_i m_i!."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m
        for j in range(2, m + 1):
            z *= j
    return z


def conjugate(lam: tuple) -> tuple:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def mobius(d: int) -> int:
    if d < 1:
        raise ValueError("mobius needs d >= 1")
    fac = _factor(d)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(d: int) -> int:
    if d < 1:
        raise ValueError("totient needs d >= 1")
    phi = d
    for p, _ in _factor(d):
        phi -= phi // p
    return phi


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def two_adic_part(n: int) -> int:
    """Largest power of 2 dividing n."""
    if n < 1:
        raise ValueError("two_adic_part needs n >= 1")
    return n & -n


def format_partition(lam: tuple) -> str:
    """Wire form: comma-separated parts in brackets, e.g. [2,1,1]."""
    return "[" + ",".join(str(part) for part in lam) + "]"


def exponent_str(lam: tuple) -> str:
    """Display form with exponents for repeated parts, e.g. (2^2,1)."""
    runs = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        runs.append(f"{lam[i]}^{j - i}" if j - i > 1 else str(lam[i]))
        i = j
    return "(" + ",".join(runs) + ")"
