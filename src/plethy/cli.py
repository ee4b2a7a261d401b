"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 identity or positivity failure
(an identity that raises counts as failed) or a command that ran out of
memory, 2 usage error.  JSON is the machine format; everything else is
aligned plain text.  Output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lie_family
from .registry import registry_ids, verify_all
from .schur import SchurExpansion, to_schur
from .series import SeriesContext
from .symfunc import SymFunc
from .tables import TABLE_NUMBERS, render_table, table_json

# The largest degree `plethy schur` and `compute --basis s` expand, checked
# before any character work.  One p-term with a part N expands over all N
# hooks, so a payload of a few bytes would cost work and output that grow as
# N squared; a dense support is out of reach far below this degree.
MAX_SCHUR_DEGREE = 256

_OBJECTS = {
    # name: (number of extra int args, builder)
    "lie": (0, lambda ctx, n: lie_family.lie(n)),
    "conj": (0, lambda ctx, n: lie_family.conj(n)),
    "lie2": (0, lambda ctx, n: lie_family.lie2(n)),
    "ell": (1, lambda ctx, n, r: lie_family.ell(n, r)),
    "delta": (0, lambda ctx, n: ctx.delta(n)),
    "sigma": (0, lambda ctx, n: ctx.sigma(n)),
    "tau": (0, lambda ctx, n: ctx.tau(n)),
    "whitney": (1, lambda ctx, n, k: ctx.whitney(n, k)),
    "vh": (1, lambda ctx, n, k: ctx.vh(n, k)),
    "u": (1, lambda ctx, n, k: ctx.u(n, k)),
    "beta": (1, lambda ctx, n, k: ctx.beta_rank(n, k)),
}


def _dump(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _schur_payload(f: SymFunc, degree: int) -> dict:
    """f's Schur-basis wire payload; zero is the empty expansion of degree."""
    return to_schur(f).to_dict() if f else SchurExpansion(degree, ()).to_dict()


def _cmd_compute(args) -> int:
    nargs, builder = _OBJECTS[args.object]  # argparse's choices reject an unknown name
    params = [args.n] + list(args.extra)
    if len(args.extra) != nargs:
        print(
            f"{args.object} takes {nargs} extra parameter(s), got {len(args.extra)}",
            file=sys.stderr,
        )
        return 2
    if args.basis == "s" and args.n > MAX_SCHUR_DEGREE:
        print(
            f"error: degree {args.n} is above the limit of {MAX_SCHUR_DEGREE}",
            file=sys.stderr,
        )
        return 2
    ctx = SeriesContext(max(args.n, 1))
    try:
        value = builder(ctx, *params)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _dump(_schur_payload(value, args.n) if args.basis == "s" else value.to_dict())
    return 0


def _cmd_schur(args) -> int:
    try:
        if args.infile:
            with open(args.infile) as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        f = SymFunc.from_dict(json.loads(raw))
        degree = max(f.degrees(), default=0)
        if degree > MAX_SCHUR_DEGREE:
            raise ValueError(f"degree {degree} is above the limit of {MAX_SCHUR_DEGREE}")
        # to_dict inside the try: a coefficient past the int-to-str digit limit raises here
        expansion = _schur_payload(f, degree)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    _dump(expansion)
    return 0


def _cmd_verify(args) -> int:
    if args.id:
        ids = [args.id]
    else:
        ids = registry_ids()
    try:
        reports = verify_all(args.cap, ids=ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)  # str(KeyError) would quote it
        return 2
    failures = skipped = 0
    for rep in reports:
        if args.json:
            sys.stdout.write(json.dumps(rep.to_dict()) + "\n")
        else:
            line = f"{rep.status.upper():4}  {rep.id}  [{rep.tier}, cap {rep.cap}]"
            if rep.first_fail_degree is not None:
                line += f"  first failure at degree {rep.first_fail_degree}"
            sys.stdout.write(line + "\n")
            if args.verbose:
                for note in rep.detail:
                    sys.stdout.write(f"      {note}\n")
        failures += rep.failed
        skipped += rep.status == "skip"
    if not args.json:
        summary = f"{len(reports) - failures - skipped}/{len(reports)} identities passed"
        if skipped:
            summary += f", {skipped} skipped below their min cap"
        sys.stdout.write(summary + "\n")
    return 1 if failures else 0


def _cmd_tables(args) -> int:
    if args.which:
        numbers = [args.which]
    else:
        numbers = list(TABLE_NUMBERS)
    for i, which in enumerate(numbers):
        if args.json:
            _dump(table_json(which))
        else:
            if i:
                sys.stdout.write("\n")
            sys.stdout.write(render_table(which))
    return 0


def _cmd_conjecture(args) -> int:
    name = {"whitehouse": "WHITEHOUSE", "upos": "U-POS"}[args.which]
    (rep,) = verify_all(args.max_n, ids=[name])
    if args.json:
        sys.stdout.write(json.dumps(rep.to_dict()) + "\n")
    else:
        for note in rep.detail:
            sys.stdout.write(note + "\n")
        sys.stdout.write(f"{rep.status.upper()}  {name} scanned to n = {args.max_n}\n")
    return 1 if rep.status == "fail" else 0


def positive_int(text: str) -> int:
    """argparse type for a degree cap: an int of at least 1."""
    cap = int(text)
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethy",
        description="exact symmetric-function engine for the lie/conj/lie2 families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute a named object and print it as JSON")
    c.add_argument("object", choices=sorted(_OBJECTS))
    c.add_argument("n", type=int)
    c.add_argument("extra", type=int, nargs="*")
    c.add_argument("--basis", choices=("p", "s"), default="p")
    c.set_defaults(fn=_cmd_compute)

    c = sub.add_parser(
        "schur",
        help="expand a p-basis JSON payload in the Schur basis",
        description=f"A payload of degree above {MAX_SCHUR_DEGREE} is refused (exit 2).",
    )
    c.add_argument("--in", dest="infile", default=None, metavar="FILE")
    c.set_defaults(fn=_cmd_schur)

    c = sub.add_parser("verify", help="run the identity registry")
    group = c.add_mutually_exclusive_group()
    group.add_argument("--id", default=None, help="single identity id")
    group.add_argument("--all", action="store_true", help="run everything (default)")
    c.add_argument("--cap", type=positive_int, default=8)
    c.add_argument("--json", action="store_true")
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("tables", help="reproduce the reference tables")
    c.add_argument("--which", type=int, choices=TABLE_NUMBERS, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_tables)

    c = sub.add_parser(
        "conjecture",
        help="scan an open positivity conjecture",
        description="whitehouse checks that the lie2 lifting deficit p_1 Lie2_(n-1) - "
        "Lie2_n fails to be Schur-positive exactly at the powers of two n >= 4; upos checks "
        "that every truncated alternating sum u(n, k) is Schur-positive.  Each degree is "
        "expanded in the Schur basis.  The whitehouse scan carries each degree's Schur "
        "numerators to the next, so p_1 Lie2_(n-1) is one box added to every shape of n-1, "
        "and it reads only the rectangle columns (d^m) for d | n.  Since a shape and its "
        "conjugate have the same dimension and characters equal up to sign, it keeps values "
        "only at the partitions lam of n with lam_1 >= l(lam), about half of p(n).  The upos scan expands each u(n, k) over its p-basis "
        "support, every partition of n, and grows with p(n).",
    )
    c.add_argument("which", choices=("whitehouse", "upos"))
    c.add_argument("--max-n", type=positive_int, default=12)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
