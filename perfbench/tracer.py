"""Span tracing around the public functions of the ``maxplus`` layers.

The program is not edited: ``Tracer.install`` replaces each probed
function with a wrapper in every loaded ``maxplus`` module that bound it
(``from .covering import build_covering`` binds a second name in
``ldp``, ``cli`` binds several), and ``uninstall`` puts the originals
back.  A timed probe records a span (name, start, end, parent span,
pass id); a count-only probe, for functions too hot to time per call,
records calls.  Spans stay in memory until the run ends.

Metric names are ``<module>.<function>.<stat>`` with the ``maxplus.``
prefix dropped and ``_kernels`` written ``kernels``.  A probe whose
function no longer exists is reported as absent instead of failing.
"""

import functools
import importlib
import statistics
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


def _cells_table(args, kwargs, out):
    return {"cells": args[0].shape[0] * args[0].shape[1]}


def _cells_bilinear(args, kwargs, out):
    return {"cells": args[0].shape[0] * args[1].shape[0]}


def _cells_bilinear_2d(args, kwargs, out):
    return {"cells": args[0].shape[0] * args[2].shape[0]}


def _cells_envelope(args, kwargs, out):
    # lines plus evaluation nodes: the linear-time transform's work
    return {"cells": args[0].shape[0] + args[2].shape[0]}


def _matrix_bytes(args, kwargs, out):
    # a table kernel hands back its stored array; only bilinear kernels
    # materialise a new |X| x |Y| matrix on every call
    return {"bytes": 0 if args[0].kind == "table" else out.nbytes}


def _subdiff_cells(args, kwargs, out):
    return {"cells": out.attain.size, "attained": int(out.attain.sum())}


def _covering_nodes(args, kwargs, out):
    return {"target": int(out.target.sum()), "uncovered": int(out.uncovered_nodes.size)}


def _dumps_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _simulate_paths(args, kwargs, out):
    return {"paths": int(args[3] if len(args) > 3 else kwargs["n_paths"])}


@dataclass(frozen=True)
class Probe:
    module: str           # module that defines the function, without "maxplus."
    attr: str             # function name, or "Class.method"
    timed: bool = True    # False: count calls only
    measure: object = None  # (args, kwargs, result) -> {stat: count}

    @property
    def name(self):
        return f"{self.module.lstrip('_')}.{self.attr}"


PROBES = (
    Probe("cli", "main"),
    Probe("cli", "_load_scenario"),
    Probe("serialize", "kernel_from_json"),
    Probe("serialize", "gridfn_from_json"),
    Probe("serialize", "dumps", measure=_dumps_bytes),
    Probe("ldp", "pipeline"),
    Probe("ldp", "limit_log_moment"),
    Probe("ldp", "tightness_criterion"),
    Probe("convergence", "limsup_trend"),
    Probe("convergence", "liminf_trend"),
    Probe("merton", "MertonValueForm.evaluate_affine", timed=False),
    Probe("grids", "domain_masks"),
    Probe("conjugacy", "Kernel.matrix", measure=_matrix_bytes),
    Probe("conjugacy", "conjugate"),
    Probe("conjugacy", "legendre_fast"),
    Probe("conjugacy", "subdifferential_map", measure=_subdiff_cells),
    Probe("conjugacy", "coercivity_report"),
    Probe("conjugacy", "superlevel_compactness_report"),
    Probe("covering", "build_covering", measure=_covering_nodes),
    Probe("covering", "solve_preimage"),
    Probe("covering", "quasicontinuity_check"),
    Probe("covering", "verdict"),
    Probe("_kernels", "matvec_table", measure=_cells_table),
    Probe("_kernels", "matvec_bilinear", measure=_cells_bilinear),
    Probe("_kernels", "matvec_bilinear_2d", measure=_cells_bilinear_2d),
    Probe("_kernels", "envelope_merge", measure=_cells_envelope),
    Probe("merton", "tail_rate_experiment"),
    Probe("merton", "simulate", measure=_simulate_paths),
    Probe("merton", "exact_tail_value"),
)

PACKAGE = "maxplus"

# the trend fits are timed one by one but reported together
TREND_SPANS = ("convergence.limsup_trend", "convergence.liminf_trend")


class Tracer:
    """Spans and counts of traced passes, kept in memory.

    Spans are stored column by column in typed arrays, so that recording
    one allocates no Python object for the garbage collector to walk.
    """

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names = ["pass"]  # span name table; spans store indices
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")  # index of the parent span, or -1
        self.span_pass = array("i")
        self.counts = {}  # pass id -> {metric: count}
        self.pass_id = -1
        self.absent = []  # probe names whose function was not found
        self._current = defaultdict(int)
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for probe in self.probes:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{probe.module}")
            except ImportError:
                self.absent.append(probe.name)
                continue
            owner = mod
            *path, leaf = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(probe.name)
                continue
            wrapper = self._wrap(probe, original)
            if path:
                self._swap(owner, leaf, original, wrapper)
                continue
            # every module namespace that bound this function object
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, attr, original, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrap(self, probe, fn):
        name = probe.name
        if not probe.timed:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._current[key] += 1
                return fn(*args, **kwargs)
            return counted

        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        measure = probe.measure

        # the trend fits run ~10^5 times a pass: keep this path short
        stack = self._stack
        span_name, starts, ends = self.span_name, self.span_start, self.span_end
        parents, passes = self.span_parent, self.span_pass

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parents.append(stack[-1] if stack else -1)
            passes.append(self.pass_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if measure is not None:
                for stat, v in measure(args, kwargs, out).items():
                    self._current[f"{name}.{stat}"] += v
            return out

        return timed

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_id, fn):
        """Run fn() inside a root span for one workload pass."""
        self.pass_id = pass_id
        self._current = self.counts.setdefault(pass_id, defaultdict(int))
        sid = len(self.span_name)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_pass.append(pass_id)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        try:
            return fn()
        finally:
            self.span_end[sid] = perf_counter()
            self._stack.pop()

    # -- aggregation --------------------------------------------------------

    def pass_metrics(self):
        """Per-pass layer metrics: {pass id: {metric: value}}."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        out = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            m = out[self.span_pass[i]]
            name = self.names[self.span_name[i]]
            m[name + ".calls"] += 1
            m[name + ".self_s"] += dur[i] - child[i]
            m[name + ".total_s"] += dur[i]
        for pid, counts in self.counts.items():
            for metric, v in counts.items():
                out[pid][metric] += v
        result = {}
        for pid, m in out.items():
            m = dict(m)
            m["convergence.trend.self_s"] = sum(m.get(t + ".self_s", 0.0) for t in TREND_SPANS)
            cells = m.get("conjugacy.subdifferential_map.cells", 0)
            if cells:
                m["covering.attain_fill"] = m["conjugacy.subdifferential_map.attained"] / cells
            target = m.get("covering.build_covering.target", 0)
            if target:
                m["covering.uncovered_frac"] = m["covering.build_covering.uncovered"] / target
            wall = m.pop("pass.total_s")
            outside = m.pop("pass.self_s") + m.get("cli.main.self_s", 0.0)
            m["trace.wall_s"] = wall
            m["trace.covered_frac"] = 1.0 - outside / wall
            del m["pass.calls"]
            result[pid] = m
        return result

    def summary(self):
        """Median over passes of every per-pass metric; a metric missing
        from a pass (its probe never fired there) counts as 0."""
        per_pass = self.pass_metrics()
        names = sorted({k for m in per_pass.values() for k in m})
        out = {}
        for n in names:
            vals = [m.get(n, 0) for m in per_pass.values()]
            # counts repeat exactly from pass to pass: keep them whole
            out[n] = statistics.median(vals) if n.endswith("_s") else statistics.median_low(vals)
        return out

    def fired(self):
        """Names of the probes that recorded at least one span or count."""
        spans = {self.names[i] for i in set(self.span_name)}
        counted = {k.rsplit(".", 1)[0] for c in self.counts.values() for k in c}
        return spans | counted

    def spans_json(self):
        """Spans in columnar form: a name table plus one array per field,
        times in seconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_s": [round(t - base, 7) for t in self.span_start],
            "end_s": [round(t - base, 7) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "pass": self.span_pass.tolist(),
        }
