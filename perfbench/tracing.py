"""Layer tracing from outside the package, by function identity.

A rotheta module often imports another module's functions by name (atlas
binds `orbits.integrate`, the package root re-exports most of them), so
patching one module attribute would miss calls.  `Tracer.install` looks up
each target function once and replaces every attribute of every loaded
rotheta module that is bound to that same object; `solve_ivp` is wrapped
wherever a rotheta module binds scipy's function.  Methods are patched on
their class.  `uninstall` puts every original back.

A target that no longer exists (renamed or removed by a refactor) is
recorded in `missing`, and every metric derived from it reads as missing
(None), never as zero.

Spans are (id, name, start, end, parent id, thread id, note).  Parents come
from a per-thread stack because the sweep pool runs samples on several
threads; each thread also keeps its own call counters, so no update is lost
between threads.  Everything stays in memory until `collect` hands it over.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import scipy.integrate

PERIODIC_TAGS = ("PeriodicPeakon", "PeriodicSmooth")
SOLVER = "orbits.solve_ivp"   # counted on every rotheta module binding it

# (metric prefix, module, attribute path, kind): "span" records a span per
# call; "count" only counts calls, for functions called ~10^5 times a pass.
TARGETS = (
    ("atlas.observe", "rotheta.atlas", "observe_wave_menu", "span"),
    ("field.build_first_integral", "rotheta.field", "build_first_integral", "span"),
    ("field.eval", "rotheta.field", "FirstIntegral.eval", "count"),
    ("field.partials", "rotheta.field", "FirstIntegral.partials", "count"),
    ("equilibria.census", "rotheta.equilibria", "census", "span"),
    ("polyroots.cubic_real_roots", "rotheta.polyroots", "cubic_real_roots", "count"),
    ("polyroots.quartic_roots", "rotheta.polyroots", "quartic_roots", "count"),
    ("elliptic.jacobi", "rotheta.elliptic", "jacobi", "count"),
    ("elliptic.complete_K", "rotheta.elliptic", "complete_K", "count"),
    ("closedform.closed_form_menu", "rotheta.closedform", "closed_form_menu", "span"),
    ("orbits.trace_level_curve", "rotheta.orbits", "trace_level_curve", "span"),
    ("orbits.integrate", "rotheta.orbits", "integrate", "span"),
    ("orbits.shoot_connection", "rotheta.orbits", "shoot_connection", "span"),
    ("orbits.classify_orbit", "rotheta.orbits", "classify_orbit", "span"),
    ("orbits.measure_axis_period", "rotheta.orbits", "measure_axis_period", "span"),
    ("cli.render_portrait_artifacts", "rotheta.cli", "render_portrait_artifacts", "span"),
)


class _ThreadState:
    def __init__(self):
        self.tid = threading.get_ident()
        self.stack = []            # (span id, name) of the open spans
        self.spans = []
        self.counts = Counter()
        self.level_traj = None     # last trajectory an observer integrated


# Notes attach what a span's caller cannot see from its duration alone.

def _note_integrate(st, parent, args, kwargs, out):
    level = parent == "atlas.observe"
    if level:
        st.level_traj = out
    drift = out.h_drift_max
    return {"level": level,
            "unverified": kwargs.get("fi") is not None and (drift is None or drift == 0.0)}


def _note_classify(st, parent, args, kwargs, out):
    traj = args[1] if len(args) > 1 else kwargs.get("traj")
    if traj is None or traj is not st.level_traj:
        return None
    st.level_traj = None
    return {"useful": out.tag in PERIODIC_TAGS}


def _note_axis_period(st, parent, args, kwargs, out):
    # the profile-plane observer integrates its level orbits here
    if parent != "atlas.observe":
        return None
    return {"level": True, "useful": out[0] is not None}


NOTES = {
    "orbits.integrate": _note_integrate,
    "orbits.classify_orbit": _note_classify,
    "orbits.measure_axis_period": _note_axis_period,
    "orbits.shoot_connection": lambda st, parent, a, kw, out: {"hit": bool(out[0])},
    SOLVER: lambda st, parent, a, kw, out: {"nfev": int(out.nfev)},
}


def _resolve(module, path):
    """(owner, attribute, object) for 'fn' or 'Class.method', or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._undo = []
        self.missing = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name, fn):
        """`fn` wrapped to record one span per call."""
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent_id, parent = st.stack[-1] if st.stack else (0, None)
            st.stack.append((sid, name))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
            extra = note(st, parent, args, kwargs, out) if note else None
            st.spans.append((sid, name, t0, t1, parent_id, st.tid, extra))
            return out
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, wrapper):
        """Point every rotheta module attribute bound to `original` at
        `wrapper`; False when no module binds it."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rotheta" or modname.startswith("rotheta.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    found = True
        return found

    def install(self):
        self.missing = []
        for name, module, path, kind in TARGETS:
            hit = _resolve(module, path)
            if hit is None:
                self.missing.append(name)
                continue
            owner, attr, original = hit
            wrapper = (self.span if kind == "span" else self._count)(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._rebind(original, wrapper)
        solver = scipy.integrate.solve_ivp
        if not self._rebind(solver, self.span(SOLVER, solver)):
            self.missing.append(SOLVER)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def collect(self):
        """(spans, counts) recorded since the last collect, then reset."""
        spans, counts = [], Counter()
        alive = {t.ident for t in threading.enumerate()}
        with self._lock:
            for st in self._states:
                spans += st.spans
                counts.update(st.counts)
                st.spans, st.counts = [], Counter()
            self._states = [st for st in self._states if st.tid in alive]
        spans.sort(key=lambda s: s[0])
        return spans, counts


def _quartiles(xs):
    if len(xs) < 2:
        return (xs[0],) * 3 if xs else (0.0,) * 3
    return statistics.quantiles(xs, n=4)


def layer_metrics(traced, missing, extra_spans=()):
    """Per-layer metrics from the traced passes of one run.

    `traced` is a list of (spans, counts) per traced pass; `extra_spans`
    names spans the benchmark records itself (reported even when a
    workload never opens them).  Counts (calls, nfev, retries, ...) come
    from the first traced pass, which every run with the same seed repeats
    exactly; times in seconds are the median over traced passes of the
    per-pass sum over threads.  Every metric of a missing target is None.
    """
    kinds = {name: kind for name, _m, _p, kind in TARGETS}
    kinds[SOLVER] = "span"
    kinds.update((name, "span") for name in extra_spans)
    per_pass = []
    for spans, counts in traced:
        by_name = defaultdict(list)
        child_time = defaultdict(float)
        names = {}
        for sid, name, t0, t1, parent, _tid, note in spans:
            by_name[name].append((sid, t1 - t0, parent, note))
            child_time[parent] += t1 - t0
            names[sid] = name
        per_pass.append((by_name, child_time, names, counts))

    def median(fn):
        return statistics.median(fn(p) for p in per_pass)

    def busy(name):
        return median(lambda p: sum(d for _s, d, _p, _n in p[0][name]))

    def notes(name, key):
        return [n.get(key) for _s, _d, _p, n in per_pass[0][0][name] if n]

    by_name, _child, names, counts = per_pass[0]
    out = {}
    for name, kind in kinds.items():
        out[f"{name}.calls"] = len(by_name[name]) if kind == "span" else counts[name]
        if kind == "span":
            out[f"{name}.s"] = busy(name)

    integ = "orbits.integrate"
    out[f"{integ}.self_s"] = median(lambda p: sum(
        d - p[1][sid] for sid, d, _p, _n in p[0][integ]))
    out[f"{integ}.retries"] = sum(
        1 for _s, _d, parent, _n in by_name[SOLVER]
        if names.get(parent) == integ) - len(by_name[integ])
    out[f"{integ}.unverified"] = sum(1 for u in notes(integ, "unverified") if u)
    out["orbits.shoot_connection.hits"] = sum(
        1 for h in notes("orbits.shoot_connection", "hit") if h)
    out[f"{SOLVER}.nfev"] = sum(notes(SOLVER, "nfev"))

    attempts = (sum(1 for lv in notes(integ, "level") if lv)
                + len(notes("orbits.measure_axis_period", "level")))
    useful = (sum(1 for u in notes("orbits.classify_orbit", "useful") if u)
              + sum(1 for u in notes("orbits.measure_axis_period", "useful") if u))
    out["orbits.level_orbit.useful_ratio"] = useful / attempts if attempts else 0.0

    observe_ms = sorted(1e3 * d for p in per_pass for _s, d, _p, _n in p[0]["atlas.observe"])
    _q1, p50, p75 = _quartiles(observe_ms)
    out["atlas.observe.ms_p50"], out["atlas.observe.ms_p75"] = p50, p75

    # derived metrics read as missing when any layer they need is missing
    needs = {f"{integ}.retries": (integ, SOLVER),
             "orbits.level_orbit.useful_ratio": (integ, "orbits.classify_orbit",
                                                 "orbits.measure_axis_period")}
    for metric in out:
        prefix = metric.rsplit(".", 1)[0]
        if prefix in missing or any(m in missing for m in needs.get(metric, ())):
            out[metric] = None
    return out
