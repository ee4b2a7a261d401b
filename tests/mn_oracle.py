"""Reference Murnaghan-Nakayama characters for the tests.

chi^lam(mu) by recursive border-strip removal on beta-numbers, memoized on
(remaining shape, remaining cycle-type suffix).  This is the character
kernel plethy used before characters were built forward as whole columns;
it shares no code with plethy._mn_pure, so the two check each other.
"""

from __future__ import annotations

_memo: dict[tuple[tuple, tuple], int] = {}


def _strip_removals(lam: tuple, k: int) -> list[tuple[tuple, int]]:
    """All (shape after removing a border strip of size k, sign)."""
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]  # strictly decreasing
    beta_set = set(beta)
    out = []
    for i in range(ell):
        b = beta[i]
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        # height = beta entries strictly between the moved endpoints
        ht = 0
        for c in beta:
            if nb < c < b:
                ht += 1
        newbeta = sorted(beta[:i] + beta[i + 1 :] + [nb], reverse=True)
        parts = []
        for j, nb2 in enumerate(newbeta):
            part = nb2 - (ell - 1 - j)
            if part:
                parts.append(part)
        out.append((tuple(parts), -1 if ht % 2 else 1))
    return out


def mn_character(lam: tuple, mu: tuple) -> int:
    """chi^lam evaluated on the class of cycle type mu; |lam| == |mu|."""
    if not mu:
        return 1 if not lam else 0
    key = (lam, mu)
    val = _memo.get(key)
    if val is not None:
        return val
    rest = mu[1:]
    total = 0
    for lam2, sign in _strip_removals(lam, mu[0]):
        total += sign * mn_character(lam2, rest)
    _memo[key] = total
    return total


def mn_table(parts: tuple[tuple, ...]) -> list[list[int]]:
    """Full table [chi^lam(mu)] with rows/cols in the order of parts."""
    return [[mn_character(lam, mu) for mu in parts] for lam in parts]
