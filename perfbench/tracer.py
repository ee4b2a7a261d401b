"""Layer tracing for one plethy call, installed from outside the package.

`Tracer` keeps a stack of open spans and folds each span into running
totals as it closes, so nothing per call is kept in memory:

* self time per layer: a span's duration minus the time its child spans
  cover.  Spans nest strictly on one thread, so the children of one span
  are disjoint and their union is the sum of their durations;
* inclusive time per group (one named operation, or one identity id),
  counting only the outermost open span of the group, so recursion and
  nesting inside the group are not counted twice;
* plain integer counters, bumped by hooks that see the call's arguments
  and result.

`install` wraps the public functions of the plethy modules by rebinding
every module-level name (and class attribute) that refers to them.  A
target the package no longer has is skipped at install time, so its
metrics read zero.  A hook that raises on a target that is still there
leaves the program alone but is recorded in `hook_errors`, and the
benchmark counts that call as failed: a count that no longer fits the
program must not read as a gain.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("registry", "series", "symfunc", "schur", "kernel", "lie_family", "partitions")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [layer, group, start, child_time]
        self._open_groups: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.hook_errors: dict[str, int] = defaultdict(int)  # "where: error" -> times

    def enter(self, layer: str, group: str | None = None) -> None:
        if group is not None:
            self._open_groups[group] += 1
        self._stack.append([layer, group, self.clock(), 0.0])

    def exit(self) -> None:
        layer, group, start, child = self._stack.pop()
        dur = self.clock() - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if group is not None:
            self._open_groups[group] -= 1
            if not self._open_groups[group]:
                self.incl_s[group] += dur

    def wrap(self, fn, layer: str, group=None, hook=None):
        """Return fn traced as a span of layer.

        group is a group name, or a callable (args, kwargs) -> name.  hook
        (counts, args, kwargs, result) updates counters after a successful
        call; an error it raises is recorded, not raised.
        """
        tracer = self
        where = getattr(fn, "__qualname__", getattr(fn, "__name__", "traced"))

        def traced(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(tracer.counts, args, kwargs, result)
                    except Exception as exc:
                        tracer.hook_errors[f"{where}: {type(exc).__name__}: {exc}"] += 1
                return result
            finally:
                tracer.exit()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = where
        traced.__wrapped__ = fn
        return traced


# -- counter hooks -------------------------------------------------------------


def _count(name):
    def hook(counts, args, kwargs, result):
        counts[name] += 1

    return hook


def _mul_hook(counts, args, kwargs, result):
    counts["symfunc.mul.calls"] += 1
    a, b = args[0], args[1]
    if type(b) is type(a):
        counts["symfunc.mul.term_pairs"] += len(a) * len(b)


def _mul_trunc_hook(counts, args, kwargs, result):
    a, b = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs["cap"]
    by_degree: dict[int, int] = defaultdict(int)
    for mu in b.support():
        by_degree[sum(mu)] += 1
    pairs = 0
    for lam in a.support():
        room = cap - sum(lam)
        pairs += sum(k for d, k in by_degree.items() if d <= room)
    counts["symfunc.mul_trunc.term_pairs"] += pairs


def _to_schur_hook(partitions_of):
    def hook(counts, args, kwargs, result):
        support = len(args[0])
        counts["schur.to_schur.calls"] += 1
        counts["schur.to_schur.support_terms"] += support
        counts["schur.to_schur.char_evals"] += support * len(partitions_of(result.degree))

    return hook


def _table_hook(counts, args, kwargs, result):
    counts["schur.table.builds"] += 1
    counts["schur.table.entries"] += len(result.parts) ** 2


def _identity_group(args, kwargs):
    return "registry.identity." + str(args[0] if args else kwargs["id"])


# -- installation ---------------------------------------------------------------

# (module, attribute path in it, layer, inclusive-time group, counter hook)
_TARGETS = [
    ("registry", "verify_all", "registry", None, None),
    ("registry", "verify_identity", "registry", _identity_group, None),
    ("registry", "registry_ids", "registry", None, None),
    ("series", "apply_series", "series", "series.apply_series", None),
    ("series", "bracket_sum", "series", "series.bracket_sum", None),
    ("series", "higher_bracket", "series", None, None),
    ("series", "series_plethysm", "series", "series.series_plethysm", None),
    ("series", "plethystic_inverse", "series", "series.series_plethysm", None),
    ("series", "product_form", "series", "series.product_form", None),
    ("series", "restrict_ge2", "series", None, None),
    ("series", "p_sum_over", "series", None, None),
    ("series", "Series.from_function", "series", None, None),
    ("series", "Series.from_symfunc", "series", None, None),
    ("series", "Series.total", "series", None, None),
    ("series", "Series.drop_grading", "series", None, None),
    ("series", "Series.__add__", "series", None, None),
    ("series", "Series.__sub__", "series", None, None),
    ("series", "Series.__mul__", "series", None, None),
    ("series", "Series.scale", "series", None, None),
    ("series", "Series.reciprocal", "series", None, None),
    ("series", "Series.map", "series", None, None),
    ("series", "Series.map_by_degree", "series", None, None),
    ("series", "SeriesContext.iterate_generator", "series", None, None),
    ("series", "SeriesContext.conj_from", "series", None, None),
    ("series", "SeriesContext.u", "series", None, None),
    ("series", "SeriesContext.beta_rank", "series", None, None),
    ("series", "SeriesContext.delta", "series", None, None),
    ("series", "SeriesContext.sigma", "series", None, None),
    ("series", "SeriesContext.tau", "series", None, None),
    ("symfunc", "p", "symfunc", None, None),
    ("symfunc", "h", "symfunc", None, None),
    ("symfunc", "e", "symfunc", None, None),
    ("symfunc", "s", "symfunc", None, None),
    ("symfunc", "plethysm", "symfunc", None, _count("symfunc.plethysm.calls")),
    ("symfunc", "mul_trunc", "symfunc", None, _mul_trunc_hook),
    ("symfunc", "hall_inner", "symfunc", None, None),
    ("symfunc", "SymFunc.__init__", "symfunc", None, None),
    ("symfunc", "SymFunc.__add__", "symfunc", None, _count("symfunc.add.calls")),
    ("symfunc", "SymFunc.__sub__", "symfunc", None, None),
    ("symfunc", "SymFunc.__mul__", "symfunc", None, _mul_hook),
    ("symfunc", "SymFunc.__rmul__", "symfunc", None, None),
    ("symfunc", "SymFunc.__neg__", "symfunc", None, None),
    ("symfunc", "SymFunc.__pow__", "symfunc", None, None),
    ("symfunc", "SymFunc.__eq__", "symfunc", None, None),
    ("symfunc", "SymFunc.scale", "symfunc", None, None),
    ("symfunc", "SymFunc.items", "symfunc", None, None),
    ("symfunc", "SymFunc.omega", "symfunc", None, None),
    ("symfunc", "SymFunc.partial_p1", "symfunc", None, None),
    ("symfunc", "SymFunc.point_specialize", "symfunc", None, None),
    ("symfunc", "SymFunc.dimension", "symfunc", None, None),
    ("symfunc", "SymFunc.homogeneous_part", "symfunc", None, None),
    ("symfunc", "SymFunc.truncate", "symfunc", None, None),
    ("symfunc", "SymFunc.to_dict", "symfunc", None, None),
    ("schur", "character", "schur", None, None),
    ("schur", "character_table", "schur", None, None),
    ("schur", "CharacterTable.build", "schur", "schur.table", _table_hook),
    ("schur", "is_schur_positive", "schur", None, None),
    ("schur", "hook_dimension", "schur", None, None),
    ("schur", "SchurExpansion.dimension", "schur", None, None),
    ("schur", "SchurExpansion.to_dict", "schur", None, None),
]

# every public function of these modules is a span of the layer named after
# the module; the value names the counter of their calls, if any
_WHOLE_MODULES = {"lie_family": "lie_family.calls", "partitions": None}

_KERNEL_MODULES = ("_mn_pure", "_mn_speed")
_KERNEL_FUNCTIONS = ("mn_character", "mn_table")


def _modules() -> dict[str, object]:
    return {
        name[len("plethy."):]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("plethy.") and mod is not None
    }


def _rebind(mods, original, replacement) -> None:
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _wrap_attr(tracer, mods, modname, path, layer, group, hook) -> None:
    mod = mods.get(modname)
    if mod is None:
        return
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    if owner is None or attr not in vars(owner):
        return
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, layer, group, hook)))
        return
    traced = tracer.wrap(raw, layer, group, hook)
    if owner_name:
        setattr(owner, attr, traced)
    else:
        _rebind(mods, raw, traced)


def _wrap_ctx_get(tracer, mods) -> None:
    cls = getattr(mods.get("series"), "SeriesContext", None)
    raw = vars(cls).get("_get") if cls is not None else None
    if raw is None:
        return

    def get(self, key, build):
        # a build is counted before the call, while the memo still shows a miss
        try:
            if self._memo.get(key) is None:
                tracer.counts["series.ctx.builds"] += 1
        except Exception as exc:
            tracer.hook_errors[f"SeriesContext._get: {type(exc).__name__}: {exc}"] += 1
        return raw(self, key, build)

    cls._get = tracer.wrap(get, "series", None, _count("series.ctx.lookups"))


def _wrap_kernels(tracer, mods) -> None:
    """Trace calls into the character kernel, not its inner recursion.

    plethy.schur reaches a kernel through module references, so those
    references are swapped for proxies whose entry points are traced; the
    kernel's own recursive calls still go to the untraced functions.
    """
    schur = mods.get("schur")
    if schur is None:
        return
    for name in _KERNEL_MODULES:
        kern = mods.get(name)
        if kern is None:
            continue
        proxy = type(sys)(kern.__name__)
        proxy.__dict__.update(vars(kern))
        for fn in _KERNEL_FUNCTIONS:
            if fn in vars(kern):
                setattr(proxy, fn, tracer.wrap(vars(kern)[fn], "kernel"))
        _rebind({"schur": schur}, kern, proxy)


def install(tracer: Tracer, mods: dict[str, object] | None = None) -> None:
    """Instrument the plethy modules, by default every one imported so far
    (import plethy.cli first); mods maps short names such as "schur" to
    modules."""
    mods = _modules() if mods is None else mods
    for modname, path, layer, group, hook in _TARGETS:
        _wrap_attr(tracer, mods, modname, path, layer, group, hook)
    schur = mods.get("schur")
    to_schur = getattr(schur, "to_schur", None)
    parts_of = getattr(mods.get("partitions"), "partitions_of", None)
    if to_schur is not None and parts_of is not None:
        _rebind(mods, to_schur, tracer.wrap(to_schur, "schur", None, _to_schur_hook(parts_of)))
    for modname, counter in _WHOLE_MODULES.items():
        mod = mods.get(modname)
        if mod is None:
            continue
        for name in getattr(mod, "__all__", ()):
            fn = vars(mod).get(name)
            if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                hook = _count(counter) if counter else None
                _rebind(mods, fn, tracer.wrap(fn, modname, None, hook))
    _wrap_ctx_get(tracer, mods)
    _wrap_kernels(tracer, mods)


def kernel_memo_entries() -> int:
    total = 0
    for name in _KERNEL_MODULES:
        memo = getattr(sys.modules.get("plethy." + name), "_memo", None)
        if memo is not None:
            total += len(memo)
    return total
