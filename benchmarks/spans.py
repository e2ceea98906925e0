"""Span tracing of zenolab from outside the package.

`Instrumented` replaces the public functions and class methods of each
zenolab module with wrappers that record a span per call (name, start, end,
parent, operation id) into a `Recorder`, and puts the originals back on
exit.  Modules import each other's names directly (``scenarios`` and ``cli``
do), so every module attribute bound to a wrapped function is patched, not
only the defining one.  Spans stay in memory until the run writes them out.

`per_layer` folds the spans into the per-layer metrics: each span name
belongs to the first layer whose patterns match it; a layer's ``calls``
count only its counted names, its ``self_s`` sums the self time of every
name it owns.  Self time is a span's duration minus the part of it that its
children cover; children from the sweep's worker threads may overlap, so
the covered part is the union of their intervals.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import itertools
import threading
import time
import weakref
from collections import defaultdict

#: zenolab modules whose functions and methods get spans
TRACED_MODULES = ("statespace", "operators", "subspaces", "zeno", "analytic",
                  "scenarios", "cli")
#: dunder methods that are part of a class's public behaviour
PUBLIC_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__rmul__"})

# span record layout: a list, mutated once when the call returns
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Recorder:
    """Spans of one run, kept in memory; safe to append to from several threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_span: list | None = None
        self._op_stack: list = []
        self.evolves = EvolveLedger()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Open the root span of operation `op` in the calling thread.

        A span opened by another thread with nothing open in that thread (a
        sweep worker) becomes a child of whatever this thread has open then.
        """
        self._op_span = [next(self._ids), None, op, "op", time.perf_counter_ns(), 0, None]
        self._op_stack = self._stack()
        self.evolves = EvolveLedger()

    def end_op(self) -> None:
        self._op_span[END] = time.perf_counter_ns()
        self.spans.append(self._op_span)
        self._op_span = None

    def call(self, name: str, fn, args, kwargs, annotate):
        stack = self._stack()
        root = self._op_span
        if stack:
            parent = stack[-1][ID]
        elif root is None:
            parent = None
        else:
            top = self._op_stack[-1:]  # a slice, so a concurrent pop cannot race it
            parent = top[0][ID] if top else root[ID]
        span = [next(self._ids), parent, root[OP] if root else None, name,
                time.perf_counter_ns(), 0, None]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if annotate is not None:
            span[ATTRS] = annotate(self, args, kwargs, result)
        return result


class EvolveLedger:
    """Per-operation memory of evolve calls, for the reuse fractions.

    repeat_t: the (space, t) pair was already evolved in this operation, so
    its phase vector could have been reused.  same_state: this very state
    object was already evolved at another t, so the calls could have been
    batched.  States are tracked by identity through weak references, which
    drop out when the state dies, so a recycled id never matches.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._times: set = set()
        self._states: dict = {}

    def note(self, space, psi, t: float) -> tuple[bool, bool]:
        t = float(t)
        with self._lock:
            repeat_t = (space, t) in self._times
            self._times.add((space, t))
            key = id(psi)
            entry = self._states.get(key)
            if entry is None or entry[0]() is not psi:
                ref = weakref.ref(psi, lambda _, k=key: self._states.pop(k, None))
                entry = self._states[key] = (ref, set())
            same_state = any(seen != t for seen in entry[1])
            entry[1].add(t)
        return repeat_t, same_state


# ----------------------------------------------------------------------
# counters recorded at the same boundaries as the spans
# ----------------------------------------------------------------------

def _evolve_attrs(rec, args, kwargs, result):
    _, psi, t = args
    repeat_t, same_state = rec.evolves.note(psi.space, psi, t)
    return {"points": psi.space.n_points, "repeat_t": repeat_t, "same_state": same_state}


def _hn_attrs(rec, args, kwargs, result):
    done = result.capped_at or result.nilpotent_at or result.n_max
    return {"powers": done, "requested": result.n_max}


ANNOTATE = {
    "operators.evolve_spectral": _evolve_attrs,
    "statespace.WaveFunction.__init__":
        lambda rec, args, kwargs, result: {"bytes": args[0].values.nbytes},
    "zeno.measured_chain":
        lambda rec, args, kwargs, result: {"segments": len(result[1]) + 1},
    "analytic.series_vs_spectral_curve":
        lambda rec, args, kwargs, result: {"terms": result.n_terms[-1]},
    "analytic.hn_norms": _hn_attrs,
    "scenarios.VerdictBundle.to_json_bytes":
        lambda rec, args, kwargs, result: {"bytes": len(result)},
    "cli.emit_outputs":
        lambda rec, args, kwargs, result: {"bytes": sum(p.stat().st_size for p in result)},
}


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, annotate)

    return traced


def _public(name: str) -> bool:
    return not name.startswith("_") or name in PUBLIC_DUNDERS


def _targets(module):
    """(owner, attribute, span name, original) for everything `module` defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__ or not _public(attr):
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj):
            for meth, raw in list(vars(obj).items()):
                if _public(meth) and (inspect.isfunction(raw) or isinstance(raw, classmethod)):
                    yield obj, meth, f"{short}.{obj.__name__}.{meth}", raw


class Instrumented:
    """Context manager: zenolab traced into `rec` inside, untouched outside."""

    def __init__(self, rec: Recorder, package) -> None:
        self.rec = rec
        self.modules = [package] + [getattr(package, m) for m in TRACED_MODULES]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        replaced = {}
        for module in self.modules[1:]:
            for owner, attr, name, raw in _targets(module):
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(self.rec, name, raw.__func__))
                else:
                    new = replaced[id(raw)] = _wrap(self.rec, name, raw)
                self._set(owner, attr, new, raw)
        # aliases: `from .operators import evolve_series`, and registries such
        # as scenarios.SCENARIOS that hold the functions themselves
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and replaced[id(obj)] is not obj:
                    self._set(module, attr, replaced[id(obj)], obj)
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._set(obj, key, replaced[id(value)], value)
        return self

    def _set(self, owner, key, new, original) -> None:
        self._saved.append((owner, key, original))
        if type(owner) is dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._saved):
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0, s[START]
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


#: (layer, names whose calls it counts, patterns of the span names it owns);
#: a span belongs to the first layer that matches, so order matters
LAYERS = (
    ("operators.evolve", ("operators.evolve_spectral",),
     ("operators.evolve_spectral", "operators.Propagator.*")),
    ("operators.shift", ("operators.evolve_exact_shift",),
     ("operators.evolve_exact_shift", "operators.ShiftPropagator.*")),
    ("operators.series", ("operators.evolve_series",),
     ("operators.evolve_series", "operators.stone_residual")),
    ("statespace.wavefunction", ("statespace.WaveFunction.__init__",),
     ("statespace.WaveFunction.*", "statespace.inner_product")),
    ("subspaces.project", ("subspaces.SubspaceProjector.apply",),
     ("subspaces.SubspaceProjector.apply", "subspaces.core_zone_state")),
    ("subspaces.mass", ("subspaces.SubspaceProjector.mass",),
     ("subspaces.SubspaceProjector.mass",)),
    ("subspaces.condition",
     ("subspaces.check_condition_I", "subspaces.check_condition_II",
      "subspaces.check_condition_IA"),
     ("subspaces.check_condition_*", "subspaces.leakage", "subspaces.generator_coupling")),
    ("zeno.survival_report", ("zeno.survival_report",), ("zeno.survival_report",)),
    ("zeno.chain", ("zeno.measured_chain",), ("zeno.*",)),
    ("analytic.series_curve", ("analytic.series_vs_spectral_curve",),
     ("analytic.series_vs_spectral_curve",)),
    ("analytic.hn_norms", ("analytic.hn_norms",), ("analytic.*",)),
    ("scenarios.to_json", ("scenarios.VerdictBundle.to_json_bytes",),
     ("scenarios.VerdictBundle.to_json_bytes", "scenarios.VerdictBundle.to_payload")),
    ("cli.emit", ("cli.emit_outputs",),
     ("cli.emit_outputs", "cli.write_table", "scenarios.VerdictBundle.summary_text")),
    ("scenarios.run", ("scenarios.run_scenario",), ("scenarios.*",)),
)


def layer_of(name: str) -> str | None:
    for layer, _, patterns in LAYERS:
        if any(fnmatch.fnmatchcase(name, p) for p in patterns):
            return layer
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, n_ops: int, sweep_jobs: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of `n_ops` traced operations."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    layers = {}
    for s in spans:
        name = s[NAME]
        calls[name] += 1
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = layer_of(name) or ""
        self_ns[layer] += selfs[s[ID]]
        for key, value in (s[ATTRS] or {}).items():
            attrs[name][key] += value

    def n_calls(layer: str) -> int:
        counted = next(c for name, c, _ in LAYERS if name == layer)
        return sum(calls[c] for c in counted)

    per_op = 1.0 / n_ops
    m: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        m[f"{layer}.calls"] = n_calls(layer) * per_op
        m[f"{layer}.self_s"] = self_ns[layer] * 1e-9 * per_op

    ev = attrs["operators.evolve_spectral"]
    n_ev = calls["operators.evolve_spectral"]
    m["operators.evolve.points"] = ev["points"] * per_op
    m["operators.evolve.ns_per_point"] = _ratio(self_ns["operators.evolve"], ev["points"])
    m["operators.evolve.repeat_t_frac"] = _ratio(ev["repeat_t"], n_ev)
    m["operators.evolve.same_state_frac"] = _ratio(ev["same_state"], n_ev)
    m["statespace.wavefunction.copy_bytes_computed"] = (
        attrs["statespace.WaveFunction.__init__"]["bytes"] * per_op)
    m["zeno.chain.segments"] = attrs["zeno.measured_chain"]["segments"] * per_op
    m["analytic.series_curve.terms"] = attrs["analytic.series_vs_spectral_curve"]["terms"] * per_op
    hn = attrs["analytic.hn_norms"]
    m["analytic.hn_norms.powers_per_request"] = _ratio(hn["powers"], hn["requested"])
    m["scenarios.to_json.bytes"] = attrs["scenarios.VerdictBundle.to_json_bytes"]["bytes"] * per_op
    m["cli.emit.bytes"] = attrs["cli.emit_outputs"]["bytes"] * per_op

    # a sweep point is its run_scenario plus emit_outputs call in a worker
    durations = defaultdict(int)
    for s in spans:
        durations[s[NAME]] += s[END] - s[START]
    point_ns = durations["scenarios.run_scenario"] + durations["cli.emit_outputs"]
    m["cli.sweep.parallel_efficiency"] = _ratio(
        point_ns, sweep_jobs * durations["cli.main"]) if durations["cli.main"] else 0.0

    m["trace.unattributed_frac"] = _ratio(self_ns[""], durations["op"])
    return {k: m[k] for k in sorted(m)}
