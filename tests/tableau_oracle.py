"""The standard-tableau major-index counter, an oracle for the tests.

The s_lam coefficient of ell(n, r) is the number of standard tableaux of
shape lam whose major index is congruent to r mod n (Kraskiewicz-Weyman).
Counting tableaux shares no code with plethy's character kernel, so the two
routes check each other.
"""

from __future__ import annotations

from typing import Iterator

from plethy.partitions import check_partition


def standard_tableaux(shape: tuple) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of the given shape, as tuples of rows.

    Exhaustive backtracking: entries 1..n are placed in increasing order, so
    rows and columns are strictly increasing by construction.
    """
    shape = check_partition(tuple(shape))
    n = sum(shape)
    if n == 0:
        yield ()
        return
    rows: list[list[int]] = [[] for _ in shape]

    def place(value: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if value > n:
            yield tuple(tuple(row) for row in rows)
            return
        for i, row in enumerate(rows):
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(value)
                yield from place(value + 1)
                row.pop()

    yield from place(1)


def descent_set(tab: tuple[tuple[int, ...], ...]) -> set[int]:
    """{i : i+1 sits in a strictly lower row than i}."""
    row_of = {}
    for i, row in enumerate(tab):
        for v in row:
            row_of[v] = i
    n = len(row_of)
    return {i for i in range(1, n) if row_of[i + 1] > row_of[i]}


def major_index(tab: tuple[tuple[int, ...], ...]) -> int:
    return sum(descent_set(tab))


def syt_multiplicity(lam: tuple, r: int) -> int:
    """Number of standard tableaux of shape lam with maj congruent to r mod n.

    Equals the s_lam coefficient of ell(n, r); the two computations are kept
    independent so each can check the other.
    """
    lam = check_partition(tuple(lam))
    n = sum(lam)
    if not 1 <= r <= n:
        raise ValueError("syt_multiplicity needs 1 <= r <= n")
    count = 0
    for tab in standard_tableaux(lam):
        if major_index(tab) % n == r % n:
            count += 1
    return count
