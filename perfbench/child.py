"""One fresh interpreter for the benchmark: an import probe or one plethy call.

    python3 perfbench/child.py import
        time `import plethy.cli` and print {"import_s", "kernel", "plethy_file"}
    python3 perfbench/child.py call [--trace FILE] -- ARGV...
        run plethy.cli.main(ARGV) and exit with its code; with --trace,
        instrument the package first and write the layer totals to FILE

plethy is found through PYTHONPATH, which perfbench/run.py points at the
checkout's src/ directory.
"""

from __future__ import annotations

import json
import sys
import time


def _import_probe() -> int:
    t0 = time.perf_counter()
    import plethy.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import plethy
    import plethy.schur

    print(json.dumps({
        "import_s": import_s,
        "kernel": plethy.schur.kernel_name(),
        "plethy_file": plethy.__file__,
    }))
    return 0


def _call(argv: list[str], trace_path: str | None) -> int | str | None:
    from plethy.cli import main

    tracer = None
    if trace_path:
        import tracer as tracing  # perfbench/tracer.py, next to this file

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        if tracer is not None:
            with open(trace_path, "w") as fh:
                json.dump({
                    "self_s": tracer.self_s,
                    "incl_s": tracer.incl_s,
                    "counts": tracer.counts,
                    "hook_errors": tracer.hook_errors,
                    "kernel_memo_entries": tracing.kernel_memo_entries(),
                }, fh)
    return code


def main(args: list[str]) -> int | str | None:
    if args[:1] == ["import"]:
        return _import_probe()
    if args[:1] == ["call"] and "--" in args:
        sep = args.index("--")
        opts, argv = args[1:sep], args[sep + 1:]
        trace_path = opts[1] if opts[:1] == ["--trace"] and len(opts) == 2 else None
        return _call(argv, trace_path)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
