"""Injected ring defects must show up as failed registry entries.

Each defect wraps a public symfunc function from the outside, so the test
does not depend on how the kernels are written.  verify_all(10) has to report
at least one failure, and no exception may escape it (an entry that raises
is itself a failure report).
"""

from __future__ import annotations

import pytest

from conftest import patch_everywhere
from plethy.registry import verify_all
from plethy.symfunc import SymFunc, mul_trunc, plethysm


def _mul_trunc_drops_top(a, b, cap):
    return mul_trunc(a, b, cap).truncate(cap - 1)


def _plethysm_drops_top(f, g, cap=None):
    out = plethysm(f, g, cap)
    return out if cap is None else out.truncate(cap - 1)


def _plethysm_budget_off_by_one(f, g, cap=None):
    """Terms p_lambda of f with two or more parts are cut one degree short."""
    if cap is None:
        return plethysm(f, g)
    long = SymFunc({lam: c for lam, c in f.items() if len(lam) >= 2})
    return plethysm(f - long, g, cap) + plethysm(long, g, cap - 1)


@pytest.mark.parametrize(
    "name, defect",
    [
        ("mul_trunc", _mul_trunc_drops_top),
        ("plethysm", _plethysm_drops_top),
        ("plethysm", _plethysm_budget_off_by_one),
    ],
    ids=["mul_trunc-drops-degree-cap", "plethysm-drops-degree-cap", "plethysm-budget-off-by-one"],
)
def test_ring_defect_fails_an_entry(monkeypatch, name, defect):
    patch_everywhere(monkeypatch, name, defect)
    reports = verify_all(10)
    failed = [r.id for r in reports if r.failed]
    assert failed, f"{defect.__name__} went unnoticed at cap 10"
