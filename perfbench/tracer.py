"""Per-layer spans for apolar, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
apolar module that holds it (``apolar.linalg.rref`` and also
``apolar.graded_engine.rref``, ``apolar.gorenstein.rref``, the package
namespace, ...), plus a few public methods on their classes.
``Tracer.uninstall`` puts every original object back.  An untraced run
installs nothing; it only uses ``snapshot`` to check that apolar is
unpatched.

A span is (op id, span id, parent span id, name, start, end).  Spans are
kept in memory and written out by ``write_spans``.  Self time is a span's
duration minus the durations of its direct child spans; busy time sums only
the outermost span of each name, so recursion is not counted twice.  Time
spent in private helpers is the self time of the public caller.  An op's
self and busy times enter the totals at ``close_op``, multiplied by the
host-speed factor the caller measured around the op; the span file keeps
the raw clock readings.

The wrappers' own bookkeeping, including the work counters below, runs on
a paused clock, so it is charged to no span; it only shows in the traced
run's throughput (``trace.overhead_ratio``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYER_MODULES = ("linalg", "polynomial", "graded_engine", "gorenstein", "monomial_ideal")

# Leaf helpers called inside inner loops: a wrapper would cost more than
# their work, so their time stays in the caller's self time.
UNWRAPPED = {"gorenstein.multinomial"}

# (module, class, method, span name) for the public methods that are traced.
METHODS = (
    ("linalg", "SpanBuilder", "add", "linalg.SpanBuilder.add"),
    ("graded_engine", "HomogeneousIdealPresentation", "slice", "graded_engine.slice"),
    ("graded_engine", "HomogeneousIdealPresentation", "hilbert_function",
     "graded_engine.hilbert_function"),
    ("graded_engine", "HomogeneousIdealPresentation", "socle", "graded_engine.socle"),
    ("graded_engine", "HomogeneousIdealPresentation", "equals", "graded_engine.equals"),
    ("graded_engine", "HomogeneousIdealPresentation", "initial_monomials",
     "graded_engine.initial_monomials"),
    ("monomial_ideal", "MonomialIdeal", "from_generators",
     "monomial_ideal.from_generators"),
)


def _apolar_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "apolar" or n.startswith("apolar.")) and m is not None]


def snapshot() -> dict:
    """Identity of every attribute of every apolar module and class."""
    out = {}
    for mod in _apolar_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def unchanged_since(before: dict) -> bool:
    after = snapshot()
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


# --- work counters, called after the wrapped call on the paused clock -------


def _coeff_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _count_rref(counts, result, rows, ncols):
    counts["cells"] += len(rows) * ncols
    nonzero = [x for row in rows for x in row if x]
    counts["nnz"] += len(nonzero)
    counts["max_coeff_bits"] = max(
        counts["max_coeff_bits"], max(map(_coeff_bits, nonzero), default=0)
    )


def _count_left_kernel(counts, result, rows, ncols):
    counts["cells"] += len(rows) * ncols
    counts["kernel_dim"] += len(result)


def _count_span_add(counts, result, builder, vec):
    counts["useful"] += bool(result)


def _count_generators(counts, result, *args, **kwargs):
    counts["generators"] += len(result.generators)


def _count_docle(counts, result, ideal):
    d = ideal.ctx.dim
    grid = candidates = 1
    for i in range(d):
        grid *= max(g.coords[i] for g in ideal.gens) + 1
        candidates *= len({g.coords[i] for g in ideal.gens if g.coords[i] >= 1})
    counts["grid_cells"] += grid
    counts["candidates"] += candidates
    counts["points"] += len(result)


def _count_intersect(counts, result, a, b):
    counts["lcm_pairs"] += len(a.gens) * len(b.gens)


def _count_from_generators(counts, result, cls, ctx, raw, *args, **kwargs):
    counts["input_gens"] += len(raw)


COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.left_kernel": _count_left_kernel,
    "linalg.SpanBuilder.add": _count_span_add,
    "graded_engine.colon_power_ideal": _count_generators,
    "graded_engine.ann_partial": _count_generators,
    "monomial_ideal.docle": _count_docle,
    "monomial_ideal.intersect": _count_intersect,
    "monomial_ideal.from_generators": _count_from_generators,
}


class _Stat:
    __slots__ = ("calls", "self_s", "busy_s", "op_self_s", "op_busy_s", "counts", "children")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0  # closed ops, host-scaled
        self.busy_s = 0.0
        self.op_self_s = 0.0  # the current op, raw
        self.op_busy_s = 0.0
        self.counts = Counter()
        self.children = Counter()  # direct child span name -> calls


class Tracer:
    """Records spans and work counts of the wrapped apolar functions while
    ``op`` holds an op id."""

    def __init__(self):
        self.op = None  # spans are recorded only while an op id is set
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self._stack: list[list] = []  # [span id, name, child time]
        self._active: Counter = Counter()
        self._paused = 0.0
        self._patch_list: list[tuple] = []

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            r0 = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans) + len(stack)
            frame = [span_id, name, 0.0]
            stack.append(frame)
            outermost = not tracer._active[name]
            tracer._active[name] += 1
            r1 = perf_counter()
            tracer._paused += r1 - r0
            start = r1 - tracer._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                r2 = perf_counter()
                stack.pop()
                tracer._active[name] -= 1
            end = r2 - tracer._paused
            duration = end - start
            stat = tracer.stats[name]
            stat.calls += 1
            stat.op_self_s += duration - frame[2]
            if outermost:
                stat.op_busy_s += duration
            if parent is not None:
                parent[2] += duration
                tracer.stats[parent[1]].children[name] += 1
            if counter is not None:
                counter(stat.counts, result, *args, **kwargs)
            tracer.spans.append(
                (tracer.op, span_id, parent[0] if parent else None, name, start, end)
            )
            tracer._paused += perf_counter() - r2
            return result

        return traced

    def _patches(self) -> list[tuple]:
        """(holder, attribute, original, wrapper) for every traced name."""
        import apolar  # noqa: F401  (loads every layer module)

        patches = []
        modules = _apolar_modules()
        for layer in LAYER_MODULES:
            mod = sys.modules[f"apolar.{layer}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            patches.append((holder, held, value, wrapper))
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"apolar.{layer}"], cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            patches.append((cls, method, original, wrapper))
        return patches

    def install(self) -> None:
        """Put the wrappers in place; may be called again after uninstall."""
        if not self._patch_list:
            self._patch_list = self._patches()
        for holder, attr, _, wrapper in self._patch_list:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original object."""
        for holder, attr, original, _ in reversed(self._patch_list):
            setattr(holder, attr, original)

    def close_op(self, scale: float) -> None:
        """Add the span times recorded since the last call to the totals,
        multiplied by ``scale``, the host-speed factor of run.host_scale
        measured around the op.  Per-layer seconds then compare across runs
        as the end-to-end times do."""
        for stat in self.stats.values():
            stat.self_s += stat.op_self_s * scale
            stat.busy_s += stat.op_busy_s * scale
            stat.op_self_s = stat.op_busy_s = 0.0

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure of the closed ops, by metric name."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.busy_s"] = stat.busy_s
            for key, value in stat.counts.items():
                out[f"{name}.{key}"] = value
        add = self.stats.get("linalg.SpanBuilder.add")
        if add is not None:
            out["linalg.SpanBuilder.add.useful_ratio"] = add.counts["useful"] / add.calls
        docle = self.stats.get("monomial_ideal.docle")
        if docle is not None and docle.counts["candidates"]:
            out["monomial_ideal.docle.useful_ratio"] = (
                docle.counts["points"] / docle.counts["candidates"]
            )
        sl = self.stats.get("graded_engine.slice")
        if sl is not None:
            out["graded_engine.slice.computed"] = sl.children["linalg.rref"]
        out["graded_engine.generators"] = sum(
            self.stats[n].counts["generators"]
            for n in ("graded_engine.colon_power_ideal", "graded_engine.ann_partial")
            if n in self.stats
        )
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
