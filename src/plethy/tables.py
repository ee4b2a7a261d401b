"""Reproduction of the four reference decomposition tables.

Tables 1 and 2 break the regular representation of S_4 / S_5 into graded
pieces three ways (symmetric powers of lie, exterior powers of lie2, and
the partition-lattice column, sign-twisted on even coranks).  Tables 3 and
4 list the truncated alternating sums u(n, k) for n = 6, 7.  table_data
builds the cells of one table as Schur expansions in its own context;
render_table prints them in canonical order with exponent notation, and
table_json swaps each cell for its wire payload.
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
    happ = ctx.get(("H", "lie"))
    eapp = ctx.get(("E", "lie2"))
    for ell in range(n, 0, -1):
        k = n - ell
        whitney = ctx.whitney(n, k) if k % 2 else ctx.whitney(n, k).omega()
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


def table_data(which: int) -> dict:
    """Structured cells for one table (of S_n, n = which + 3); every cell
    is a SchurExpansion.  Tables 3 and 4 stop at k = n-2, as u(n, n-1) is 0."""
    if which not in TABLE_NUMBERS:
        raise ValueError("table number must be 1, 2, 3 or 4")
    n = which + 3
    ctx = SeriesContext(n)
    if which > 2:
        us = to_schur_many(ctx.u_row(n)[:-1])
        rows = [{"k": k, "u": u} for k, u in enumerate(us)]
        return {"table": which, "n": n, "kind": "alternating-sums", "rows": rows}
    return {
        "table": which,
        "n": n,
        "kind": "regular-decompositions",
        "rows": _decomposition_rows(n, ctx),
        "poincare": _POINCARE[n],
    }


def _fmt_columns(rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def render_table(which: int) -> str:
    """Plain-text rendering; byte-stable across runs."""
    data = table_data(which)
    n = data["n"]
    if data["kind"] == "regular-decompositions":
        lines = [
            f"Table {which}: the regular representation of S{n}",
            f"Poincare polynomial: {data['poincare']}",
        ]
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
    else:
        lines = [f"Table {which}: truncated alternating sums u({n},k)"]
        grid = [["k", f"u({n},k)"]]
        grid += [[str(row["k"]), row["u"].exponent_str()] for row in data["rows"]]
    return "\n".join(lines + _fmt_columns(grid)) + "\n"


def table_json(which: int) -> dict:
    """Machine form of one table: table_data with each cell's wire payload."""
    data = table_data(which)
    data["rows"] = [
        {key: v.to_dict() if isinstance(v, SchurExpansion) else v for key, v in row.items()}
        for row in data["rows"]
    ]
    return data
