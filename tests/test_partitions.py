import itertools
from math import factorial

import pytest
from hypothesis import given

from conftest import partition_strategy
from plethy.partitions import (
    conjugate,
    divisors,
    exponent_str,
    format_partition,
    is_partition,
    mobius,
    multiplicities,
    partitions_of,
    totient,
    two_adic_part,
    z_of,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def brute_partitions(n):
    """All weakly decreasing positive tuples summing to n, by exhaustion."""
    out = set()

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.add(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def test_counts_and_completeness():
    for n, expected in enumerate(PARTITION_COUNTS):
        parts = partitions_of(n)
        assert len(parts) == expected
        assert len(set(parts)) == len(parts)
        assert set(parts) == brute_partitions(n)


def test_canonical_order_reverse_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(9):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)


def test_zero_yields_empty_partition():
    assert partitions_of(0) == ((),)
    assert partitions_of(0, "powers_of_two_and_no_1") == ((),)


def test_filters_against_brute_force():
    def is_pow2(k):
        return k & (k - 1) == 0

    for n in range(21):
        allp = partitions_of(n)
        assert set(partitions_of(n, "parts_powers_of_two")) == {
            lam for lam in allp if all(is_pow2(part) for part in lam)
        }
        assert set(partitions_of(n, "powers_of_two_and_no_1")) == {
            lam for lam in allp if 1 not in lam and all(is_pow2(part) for part in lam)
        }


def test_powers_of_two_example():
    assert set(partitions_of(4, "parts_powers_of_two")) == {
        (4,),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    }


def test_distinct_powers_intersection():
    def is_pow2(k):
        return k & (k - 1) == 0

    for n in range(21):
        powers = partitions_of(n, "parts_powers_of_two")
        via_filter = {lam for lam in powers if len(set(lam)) == len(lam)}
        brute = {
            lam
            for lam in brute_partitions(n)
            if len(set(lam)) == len(lam) and all(is_pow2(part) for part in lam)
        }
        assert via_filter == brute


def test_bad_filter_rejected():
    for name in ("nope", "distinct_parts", "no_part_equal_1"):
        with pytest.raises(ValueError):
            partitions_of(3, name)


def test_z_examples():
    assert z_of((2, 1, 1)) == 4
    for n in range(1, 8):
        assert z_of((1,) * n) == factorial(n)
        assert z_of((n,)) == n


def test_class_sizes_partition_the_group():
    for n in range(13):
        assert sum(factorial(n) // z_of(lam) for lam in partitions_of(n)) == factorial(n)


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert multiplicities(()) == {}


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
    assert conjugate((3, 1)) == (2, 1, 1)


def test_number_theory_values():
    assert mobius(4) == 0
    assert totient(4) == 2
    assert [mobius(d) for d in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [totient(d) for d in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert two_adic_part(12) == 4
    assert two_adic_part(7) == 1
    assert two_adic_part(64) == 64
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_divisor_sums():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_wire_format_round_trip():
    assert format_partition((2, 1, 1)) == "[2,1,1]"
    assert format_partition(()) == "[]"


def test_exponent_str():
    assert exponent_str((2, 2, 1)) == "(2^2,1)"
    assert exponent_str((4,)) == "(4)"
    assert exponent_str((3, 1, 1, 1)) == "(3,1^3)"


@given(partition_strategy())
def test_partition_strategy_yields_partitions(lam):
    assert is_partition(lam)


@given(partition_strategy(max_n=10))
def test_z_matches_centralizer_order(lam):
    # z_lam = n! / (class size); count the class directly for small n
    n = sum(lam)
    if n > 6:
        return
    from conftest import cycle_type

    size = sum(1 for perm in itertools.permutations(range(n)) if cycle_type(perm) == lam)
    assert size * z_of(lam) == factorial(n)
