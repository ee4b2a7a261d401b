"""Reproduction of the four reference decomposition tables.

Tables 1 and 2 break the regular representation of S_4 / S_5 into graded
pieces three ways (symmetric powers of lie, exterior powers of lie2, and
the partition-lattice column, sign-twisted on even coranks).  Tables 3 and
4 list the truncated alternating sums u(n, k) for n = 6, 7.  Cells are
Schur expansions rendered in canonical order with exponent notation.
"""

from __future__ import annotations

from .partitions import exponent_str, partitions_of
from .schur import SchurExpansion, to_schur, to_schur_many
from .series import SeriesContext

__all__ = ["table_data", "render_table", "TABLE_NUMBERS"]

TABLE_NUMBERS = (1, 2, 3, 4)

_POINCARE = {4: "1+6t+11t^2+6t^3", 5: "1+10t+35t^2+50t^3+24t^4"}


def _decomposition_rows(n: int, ctx: SeriesContext) -> list[dict]:
    """Rows l = n..1 of the three-way regular-representation table."""
    rows = []
    happ = ctx.app("H", "lie")
    eapp = ctx.app("E", "lie2")
    wapp = ctx.app("E", "lie")
    for ell in range(n, 0, -1):
        k = n - ell
        whitney_raw = wapp.graded(n, ell)
        whitney = whitney_raw if k % 2 == 0 else whitney_raw.omega()
        classes = [lam for lam in partitions_of(n) if len(lam) == ell]
        rows.append(
            {
                "length": ell,
                "classes": [exponent_str(lam) for lam in classes],
                "pbw": to_schur(happ.graded(n, ell)),
                "ext": to_schur(eapp.graded(n, ell)),
                "whitney": to_schur(whitney),
                "whitney_label": f"WH{k}" if k % 2 else f"w(WH{k})",
            }
        )
    return rows


def _alternating_rows(n: int, ctx: SeriesContext) -> list[dict]:
    """Rows k = 0..n-2 of the truncated-alternating-sum table (k = n-1 is 0)."""
    us = to_schur_many(ctx.u_row(n)[:-1])
    return [{"k": k, "u": u} for k, u in enumerate(us)]


def table_data(which: int, ctx: SeriesContext | None = None) -> dict:
    """Structured cells for one table; all values are SchurExpansion."""
    if which not in TABLE_NUMBERS:
        raise ValueError("table number must be 1, 2, 3 or 4")
    if which in (1, 2):
        n = 4 if which == 1 else 5
        ctx = ctx or SeriesContext(n)
        return {
            "table": which,
            "n": n,
            "kind": "regular-decompositions",
            "poincare": _POINCARE[n],
            "rows": _decomposition_rows(n, ctx),
        }
    n = 6 if which == 3 else 7
    ctx = ctx or SeriesContext(n)
    return {
        "table": which,
        "n": n,
        "kind": "alternating-sums",
        "rows": _alternating_rows(n, ctx),
    }


def _fmt_columns(rows: list[list[str]], sep: str = "  ") -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [sep.join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def render_table(which: int, ctx: SeriesContext | None = None) -> str:
    """Plain-text rendering; byte-stable across runs."""
    data = table_data(which, ctx)
    n = data["n"]
    lines = []
    if data["kind"] == "regular-decompositions":
        lines.append(f"Table {which}: the regular representation of S{n}")
        lines.append(f"Poincare polynomial: {data['poincare']}")
        grid = [["classes", "PBW h_l[lie]", "Ext e_l[lie2]", "Whitney"]]
        for row in data["rows"]:
            grid.append(
                [
                    f"l={row['length']} " + " and ".join(row["classes"]),
                    row["pbw"].exponent_str(),
                    row["ext"].exponent_str(),
                    f"{row['whitney_label']}: {row['whitney'].exponent_str()}",
                ]
            )
        lines.extend(_fmt_columns(grid))
    else:
        lines.append(f"Table {which}: truncated alternating sums u({n},k)")
        grid = [["k", f"u({n},k)"]]
        for row in data["rows"]:
            grid.append([str(row["k"]), row["u"].exponent_str()])
        lines.extend(_fmt_columns(grid))
    return "\n".join(lines) + "\n"


def table_json(which: int, ctx: SeriesContext | None = None) -> dict:
    """Machine form of one table (SchurExpansion wire payloads)."""
    data = table_data(which, ctx)
    out = {"table": data["table"], "n": data["n"], "kind": data["kind"], "rows": []}
    if "poincare" in data:
        out["poincare"] = data["poincare"]
    for row in data["rows"]:
        if data["kind"] == "regular-decompositions":
            out["rows"].append(
                {
                    "length": row["length"],
                    "classes": row["classes"],
                    "pbw": row["pbw"].to_dict(),
                    "ext": row["ext"].to_dict(),
                    "whitney": row["whitney"].to_dict(),
                    "whitney_label": row["whitney_label"],
                }
            )
        else:
            out["rows"].append({"k": row["k"], "u": row["u"].to_dict()})
    return out
