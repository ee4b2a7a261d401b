"""Reference whitehouse deficits from the d-quotient, for the tests.

chi^lam(d^m) is 0 unless lam has an empty d-core; otherwise it is

    sgn_d(lam) (m; |lam^(0)|, ..., |lam^(d-1)|) prod_i f^(lam^(i))

over the d-quotient lam^(0), ..., lam^(d-1) of lam (James-Kerber, The
Representation Theory of the Symmetric Group, 2.7; Macdonald I.1 Ex. 8).
Here it is read off a beta-set with a multiple of d beads: the core is
empty when every runner holds as many beads, the quotient is the shape of
each runner's beads, and the sign is that of removing the d-hooks one by
one, (-1) to the number of beads each one jumps.  f^lam comes from the
beta-set formula n! prod_(i<j) (b_i - b_j) / prod_i b_i!, and
Ind(g)[lam] sums g over the shapes one removable corner below lam.  None
of this shares code with plethy._mn_pure, whose strip moves it checks.
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod

from plethy.partitions import partitions_of


def _beta(lam: tuple, beads: int) -> list[int]:
    """The beta-set of lam with beads beads, largest first."""
    parts = list(lam) + [0] * (beads - len(lam))
    return [part + beads - 1 - i for i, part in enumerate(parts)]


def _shape(beta: list[int]) -> tuple:
    """The partition whose beta-set is beta, in any order."""
    beta = sorted(beta, reverse=True)
    return tuple(b - (len(beta) - 1 - i) for i, b in enumerate(beta) if b - (len(beta) - 1 - i))


@cache
def dimension(lam: tuple) -> int:
    """f^lam by the beta-set formula."""
    beta = _beta(lam, len(lam))
    num = factorial(sum(lam)) * prod(a - b for i, a in enumerate(beta) for b in beta[i + 1 :])
    return num // prod(factorial(b) for b in beta)


def _hook_sign(beta: list[int], d: int) -> int:
    """(-1) to the beads jumped in removing every d-hook, one at a time:
    each bead, lowest first, slides down its runner onto the beads below."""
    beads, sign = set(beta), 1
    for b in sorted(beta):
        while b >= d and b - d not in beads:
            sign *= (-1) ** sum(b - d < c < b for c in beads)
            beads ^= {b, b - d}
            b -= d
    return sign


def rectangle_character(lam: tuple, d: int) -> int:
    """chi^lam(d^m), m = |lam| / d."""
    m = sum(lam) // d
    beads = -(-len(lam) // d) * d
    beta = _beta(lam, beads)
    runners = [[b // d for b in beta if b % d == r] for r in range(d)]
    if any(len(runner) != beads // d for runner in runners):
        return 0  # the d-core is not empty
    quotient = [_shape(runner) for runner in runners]
    multinomial = factorial(m) // prod(factorial(sum(q)) for q in quotient)
    return _hook_sign(beta, d) * multinomial * prod(dimension(q) for q in quotient)


@cache
def rectangle_column(n: int, d: int) -> dict[tuple, int]:
    """{lam: chi^lam(d^(n/d))} over the lam of n where it is nonzero, kept
    for the next caller, who must not change it."""
    column = {lam: rectangle_character(lam, d) for lam in partitions_of(n)}
    return {lam: v for lam, v in column.items() if v}


def _r(psi, n: int) -> dict[tuple, int]:
    """R_n = sum over d | n, d > 1, of psi(d) chi(d^(n/d)), by partition."""
    out = dict.fromkeys(partitions_of(n), 0)
    for d in range(2, n + 1):
        if n % d == 0 and psi(d):
            for lam, v in rectangle_column(n, d).items():
                out[lam] += psi(d) * v
    return out


def _corners_below(lam: tuple) -> list[tuple]:
    """The shapes lam minus one removable corner."""
    out = []
    for i, part in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < part:
            out.append(tuple(q for q in lam[:i] + (part - 1,) + lam[i + 1 :] if q))
    return out


def deficit_verdicts(psi, max_n: int) -> list[tuple]:
    """(positive, witness, coeff) of p_1 f_(n-1) - f_n for n = 2 .. max_n.

    The coefficient of s_lam is N_n[lam] / (n(n-1)), with N_n[lam] =
    psi(1) f^lam + n Ind(R_(n-1))[lam] - (n-1) R_n[lam]; the witness is the
    largest shape among those of least coefficient, when that is negative.
    """
    verdicts, prev = [], _r(psi, 1)
    for n in range(2, max_n + 1):
        cur = _r(psi, n)
        coeffs = {}
        for lam in partitions_of(n):
            ind = sum(prev[mu] for mu in _corners_below(lam))
            num = psi(1) * dimension(lam) + n * ind - (n - 1) * cur[lam]
            assert num % (n * (n - 1)) == 0, (n, lam, num)
            coeffs[lam] = num // (n * (n - 1))
        low = min(coeffs.values())
        if low >= 0:
            verdicts.append((True, None, None))
        else:
            verdicts.append((False, max(lam for lam, c in coeffs.items() if c == low), low))
        prev = cur
    return verdicts
