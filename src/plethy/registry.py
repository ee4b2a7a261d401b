"""The identity registry: every plethystic identity the engine verifies.

Each entry computes both sides of one published identity independently and
compares them coefficient-for-coefficient per degree (and per length slot
where the statement carries the v marker).  Theorem-tier failures are bugs;
conjecture-tier entries scan open positivity statements, so their reports
are findings either way.

This module holds the report type, the driver and the two conjecture-tier
scans.  verify_identity is the one runner: it runs an entry on a context of
its cap, or reports a skip below the entry's min_cap, and verify_all calls
it for each id on one shared context.  Each entry declares the context's
memo keys its body reads, _register adds by SeriesContext.sources the keys
those are built from, and verify_all releases each key once its last reader
in the run is done.  U-POS reads the u rows through
_rows_positive, the one positivity loop, which the theorem BETA-POS shares
for the beta rows: each degree's row comes packed straight off its running
sums and goes to schur.is_schur_positive_packed.  WHITEHOUSE reads the lie2
deficit with schur.deficit_positivity, which carries each degree's Schur
numerators to the next; both take their verdicts from one rule in
plethy.schur.  The 56 theorem-tier entries live in plethy.theorems, which
registers them when it is imported.  The registry imports it the first
time registry_ids() runs or an id not registered yet is looked up, never
at load, so a run of the two scans does not load them.  Registry order is
the theorems in their module's order, then the conjectures.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .lie_family import Psi
from .partitions import format_partition
from .schur import deficit_positivity, is_schur_positive_packed
from .series import Series, SeriesContext
from .symfunc import SymFunc

__all__ = ["IdentityReport", "verify_identity", "verify_all", "registry_ids", "TIERS"]

TIERS = ("theorem", "conjecture")


class IdentityReport(NamedTuple):
    id: str
    tier: str
    cap: int
    status: str  # "pass" | "fail" | "skip" (cap below the entry's min_cap)
    first_fail_degree: int | None = None
    difference: SymFunc | None = None
    detail: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        """True only for a failed check; a skip is neither passed nor failed."""
        return self.status == "fail"

    def to_dict(self) -> dict:
        out = {"id": self.id, "tier": self.tier, "cap": self.cap, "status": self.status}
        if self.first_fail_degree is not None:
            out["first_fail_degree"] = self.first_fail_degree
        if self.difference is not None:
            out["difference"] = self.difference.to_dict()
        if self.detail:
            out["detail"] = list(self.detail)
        return out


class _Check:
    """Collects the first per-degree mismatch of an identity."""

    def __init__(self):
        self.fail_degree: int | None = None
        self.difference: SymFunc | None = None
        self.notes: list[str] = []

    def eq(self, degree: int, lhs: SymFunc, rhs: SymFunc, note: str = "") -> None:
        if self.fail_degree is not None:
            return
        if lhs != rhs:
            self.fail_degree = degree
            self.difference = lhs - rhs
            if note:
                self.notes.append(f"mismatch at degree {degree}: {note}")

    def eq_graded(self, A: Series, B: Series) -> None:
        for n, r in sorted(set(A.graded_keys()) | set(B.graded_keys())):
            self.eq(n, A.graded(n, r), B.graded(n, r), note=f"length slot r={r}")

    def fail(self, degree: int, note: str) -> None:
        if self.fail_degree is None:
            self.fail_degree = degree
            self.notes.append(note)


class _Entry(NamedTuple):
    id: str
    tier: str
    description: str
    fn: Callable[[SeriesContext, int, _Check], None]
    reads: frozenset  # the keys fn reads and, by SeriesContext.sources, those they are built from
    min_cap: int = 2


# every entry by id, in registration order
_ENTRIES: dict[str, _Entry] = {}


def _register(
    id: str, description: str, *, reads: Iterable, tier: str = "theorem", min_cap: int = 2
):
    """Register fn under id.  reads lists the SeriesContext memo keys fn's
    own body reads, by SeriesContext.get or a reader over it, in the format
    of the SeriesContext docstring; the keys those are built from are added
    here, by SeriesContext.sources.  verify_all releases a key after its last
    reader, so a key left out costs a rebuild, never a wrong result."""
    closure, todo = set(), list(reads)
    while todo:
        key = todo.pop()
        if key not in closure:
            closure.add(key)
            todo += SeriesContext.sources(key)

    def deco(fn):
        _ENTRIES[id] = _Entry(id, tier, description, fn, frozenset(closure), min_cap)
        return fn

    return deco


def _load_theorems() -> None:
    from . import theorems  # noqa: F401  (importing it registers the theorem tier)


# ---------------------------------------------------------------------------
# the conjecture tier


def _rows_positive(check: _Check, name: str, row: Callable, cap: int) -> bool:
    """Scan name(n, k) = row(n)[k] for 2 <= n <= cap, each degree read as one
    packed batch, row(n, packed=True); the first function that is not
    Schur-positive fails check, and the scan says whether none did."""
    for n in range(2, cap + 1):
        for k, res in enumerate(is_schur_positive_packed(*row(n, packed=True))):
            if not res.positive:
                where = f"{res.witness_partition}: {res.witness_coeff}"
                check.fail(n, f"{name}({n},{k}) negative at {where}")
                return False
    return True


@_register(
    "U-POS",
    "truncated alternating vh sums are Schur-positive",
    reads=[("walk", "two_adic", -1)],
    tier="conjecture",
)
def _u_pos(ctx, cap, check):
    if _rows_positive(check, "u", ctx.u_row, cap):
        check.notes.append(f"u(n,k) Schur-positive for all 2 <= n <= {cap}, 0 <= k <= n-1")


@_register(
    "WHITEHOUSE",
    "lifting deficit positive exactly away from powers of two",
    reads=[],
    tier="conjecture",
)
def _whitehouse(ctx, cap, check):
    for n, res in enumerate(deficit_positivity(Psi.two_adic(), cap), 2):
        # n = 2 sits outside the pattern: the deficit there is e_2, a true
        # module, because the degree-1 family term still contains the trivial
        power = (n & (n - 1)) == 0 and n >= 4
        if res.positive:
            check.notes.append(f"n={n}: positive")
        else:
            check.notes.append(
                f"n={n}: not positive, witness {format_partition(res.witness_partition)} "
                f"coeff {res.witness_coeff}"
            )
        if res.positive == power:
            check.fail(n, f"conjecture violated at n={n} (positive={res.positive})")
            return

    check.notes.append("pattern matches: not positive exactly at powers of two")


# ---------------------------------------------------------------------------
# driver


def registry_ids(tier: str | None = None) -> list[str]:
    _load_theorems()
    return [
        entry.id
        for t in TIERS
        if tier in (None, t)
        for entry in _ENTRIES.values()
        if entry.tier == t
    ]


def _entry(id: str) -> _Entry:
    if id not in _ENTRIES:
        _load_theorems()
    if id not in _ENTRIES:
        raise KeyError(f"unknown identity id {id!r}")
    return _ENTRIES[id]


def verify_identity(id: str, cap: int, ctx: SeriesContext | None = None) -> IdentityReport:
    """Run one entry at cap on ctx, a context of that cap (a new one if None).

    An entry whose min_cap is above cap is not run; its report has status
    "skip".
    """
    entry = _entry(id)
    if ctx is None:
        ctx = SeriesContext(cap)
    elif ctx.cap != cap:
        raise ValueError(f"a context of cap {ctx.cap} cannot run {id} at cap {cap}")
    if cap < entry.min_cap:
        return IdentityReport(id, entry.tier, cap, "skip", detail=(f"needs cap >= {entry.min_cap}",))
    check = _Check()
    raised = False
    try:
        entry.fn(ctx, cap, check)
    except Exception as exc:
        # a defect below the identity, such as a wrong character, fails this
        # entry instead of ending the whole run
        check.notes.append(f"raised {type(exc).__name__}: {exc}")
        raised = True
    status = "pass" if check.fail_degree is None and not raised else "fail"
    return IdentityReport(
        id=id,
        tier=entry.tier,
        cap=cap,
        status=status,
        first_fail_degree=check.fail_degree,
        difference=check.difference,
        detail=tuple(check.notes),
    )


def verify_all(cap: int, ids: list[str] | None = None) -> list[IdentityReport]:
    """verify_identity for each id (the whole registry if None), in that
    order, on one shared context; an unknown id raises KeyError before any
    entry runs.

    After each entry the context releases the keys that no later entry in
    ids declares, so it holds only what is still to be read, and nothing
    once the run ends.
    """
    wanted = ids if ids is not None else registry_ids()
    last: dict = {}  # memo key -> the last position in wanted that reads it
    for i, id in enumerate(wanted):
        for key in _entry(id).reads:
            last[key] = i
    ctx = SeriesContext(cap)
    reports = []
    for i, id in enumerate(wanted):
        reports.append(verify_identity(id, cap, ctx))
        ctx.release([key for key, j in last.items() if j == i])
    return reports
