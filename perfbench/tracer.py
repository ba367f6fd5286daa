"""Per-layer tracing by wrapping the program's module attributes.

The program's source is not edited.  `Tracer.install` replaces selected
public functions and methods of the `dbecurves` modules with timing wrappers
(every module-level alias of a function is replaced, so `from .curves import
sample` in another module is traced too) and `Tracer.uninstall` puts the
originals back.

Coarse calls become spans (name, start, end, parent, operation id) kept in
memory.  Hot leaf calls, made tens of thousands of times per operation, are
aggregated per name instead (calls, total and self time); their time counts
as covered time of the span they ran under, so a span's self time is its
duration minus its child spans and the leaf calls directly under it.
Counters are taken in the same wrappers.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from fractions import Fraction

perf = time.perf_counter

SPAN, LEAF = "span", "leaf"

# (module, attribute or Class.method, kind); the layer name is the module's
# short name plus the attribute.
TARGETS = (
    ("cli", "main", SPAN),
    ("curves", "build_extremal_curve", SPAN),
    ("curves", "sample", SPAN),
    ("curves", "check_dbe_property", SPAN),
    ("hausdorff", "certify_h1", SPAN),
    ("hausdorff", "polyline_length", SPAN),
    ("hausdorff", "box_count", SPAN),
    ("hausdorff", "check_lipschitz_image", SPAN),
    ("hausdorff", "check_sum_image_bound", SPAN),
    ("hausdorff", "check_derivative_bound", SPAN),
    ("hausdorff", "sqrt_enclosure", LEAF),
    ("singular", "build_full_measure_mapper", SPAN),
    ("singular", "eval_riesz_nagy", LEAF),
    ("singular", "IntervalStaircase.__call__", LEAF),
    ("singular", "PiecewiseLinear.__call__", LEAF),
    ("singular", "RieszNagyImageGrid.point", LEAF),
    ("exact", "IntervalUnion.intersect", LEAF),
    ("exact", "IntervalUnion.union", LEAF),
    ("exact", "IntervalUnion.subtract", LEAF),
    ("partitions", "refine", SPAN),
    ("trials", "run_all", SPAN),
)

PACKAGE = "dbecurves"


class Tracer:
    """Spans, leaf aggregates and counters of the wrapped calls."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, covered)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(int)
        self.op_id: int | None = None
        # frames: [span id (None for a leaf), name, time covered by callees]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in
            ("exact", "partitions", "singular", "curves", "hausdorff", "trials",
             "setfamily", "oracle", "cli")]
        for mod_name, attr, kind in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{attr.replace('.__call__', '')}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(mod, cls_name)]
                orig = owners[0].__dict__[meth]
            else:
                owners = modules
                orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, kind)
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        stack = self._stack
        hook = _HOOKS.get(name)
        leaves = self.leaves
        spans = self.spans

        if kind == LEAF:
            def leaf(*args, **kwargs):
                frame = [None, name, 0.0]
                stack.append(frame)
                pre = hook(tracer, args, BEFORE, None) if hook else None
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    rec = leaves[name]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[2]
                    if stack:
                        stack[-1][2] += dt
                if hook:
                    hook(tracer, args, result, pre)
                return result
            return leaf

        def span(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [span_id, name, 0.0]
            stack.append(frame)
            pre = hook(tracer, args, BEFORE, None) if hook else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[span_id] = (span_id, parent, tracer.op_id, name, t0, t1, frame[2])
                if stack:
                    stack[-1][2] += t1 - t0
            if hook:
                hook(tracer, args, result, pre)
            return result
        return span

    # -- reports ------------------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """name -> [calls, total time, self time] over all recorded spans."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            dur = span[5] - span[4]
            rec = out[span[3]]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - span[6]
        return dict(out)

    def chord_time(self) -> float:
        """polyline_length time not spent in its child sample spans."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s[3] == "hausdorff.polyline_length":
                total += s[5] - s[4]
            elif s[3] == "curves.sample" and s[1] is not None \
                    and by_id[s[1]][3] == "hausdorff.polyline_length":
                total -= s[5] - s[4]
        return total

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "op": s[2],
                                     "name": s[3], "start": s[4], "end": s[5],
                                     "covered": s[6]}) + "\n")


# -- counters taken at the wrapped boundaries -----------------------------------
# A hook is called twice: before the call with result BEFORE (its return
# value is passed back as `pre`), and after the call with the result.

BEFORE = object()


def _sample_hook(tr: Tracer, args, result, pre):
    if result is BEFORE:
        # the sample frame is on top; its caller is one below
        return tr._stack[-2][1] if len(tr._stack) > 1 else None
    tr.counters["points"] += len(result)
    if pre == "hausdorff.box_count":
        tr.counters["box_points"] += len(result)


def _riesz_hook(tr: Tracer, args, result, pre):
    if result is not BEFORE and any(f[1] == "curves.sample" for f in tr._stack):
        tr.counters["riesz_in_sample"] += 1


def _dbe_hook(tr: Tracer, args, result, pre):
    if result is not BEFORE:
        tr.counters["dbe_pairs"] += result.pair_count


def _sqrt_hook(tr: Tracer, args, result, pre):
    if result is not BEFORE:
        bits = Fraction(args[0]).denominator.bit_length()
        if bits > tr.counters["den_bits_max"]:
            tr.counters["den_bits_max"] = bits


def _grid_hook(tr: Tracer, args, result, pre):
    size = len(getattr(args[0], "_cache", ()))
    if result is BEFORE:
        return size
    if size == pre:
        tr.counters["grid_hits"] += 1


def _trials_hook(tr: Tracer, args, result, pre):
    if result is not BEFORE:
        tr.counters["trial_violations"] += sum(result.values())


_HOOKS = {
    "curves.sample": _sample_hook,
    "singular.eval_riesz_nagy": _riesz_hook,
    "curves.check_dbe_property": _dbe_hook,
    "hausdorff.sqrt_enclosure": _sqrt_hook,
    "singular.RieszNagyImageGrid.point": _grid_hook,
    "trials.run_all": _trials_hook,
}
