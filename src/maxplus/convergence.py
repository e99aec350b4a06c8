"""Finite-prefix convergence checks for sequences of quasi-linear forms.

Limits over the sequence index are never certified: every verdict is a
finite-prefix trend with a declared extrapolation rule and tolerance.
The default extrapolation fits values against the basis
{1, 1/n, log(n)/n} (least squares over the available indices) and reads
off the constant; liminf / limsup trends apply the same fit to the
running tail minimum / maximum.

Statements checked, mirroring the weak-convergence ladder: (weak) test
functions converge two-sidedly; (lsc-liminf) / (usc-limsup) one-sided
bounds on functions — on a grid every function is both l.s.c. and
u.s.c., so these run over the same family; (open-liminf),
(closed-limsup), (compact-limsup) set bounds with caller-declared roles.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from ._normal import log_gauss_mass, log_mgf_piecewise_linear, mask_runs
from .errors import ValidationError
from .forms import QuasiLinearForm, _to_mask
from .grids import NEG_INF, Grid, GridFn

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

LOG2 = float(np.log(2.0))
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FormSequence:
    """A sequence of forms over one Y-grid, sampled at finite indices."""

    generator: object  # index -> QuasiLinearForm
    n_list: tuple
    y_grid: Grid

    def __post_init__(self):
        n = tuple(int(k) for k in self.n_list)
        if not n or sorted(n) != list(n):
            raise ValidationError("n_list must be a nondecreasing nonempty tuple")
        object.__setattr__(self, "n_list", n)

    def forms(self):
        return [(n, self.generator(n)) for n in self.n_list]


class GaussianMeanForm(QuasiLinearForm):
    """Exact log-moment form of the mean of n standard Gaussians.

    Evaluation is closed form: affine test functions go through the
    Gaussian moment generating function, node sets through interval
    probabilities of N(0, 1/n), and generic grid functions through their
    piecewise-linear interpolant with end pieces extended to infinity.
    """

    array_affine = True

    def __init__(self, index, grid):
        if grid.dim != 1:
            raise ValidationError("GaussianMeanForm lives on a 1-D grid")
        self.index = int(index)
        if self.index < 1:
            raise ValidationError("index must be >= 1")
        self._grid = grid

    @property
    def grid(self):
        return self._grid

    @property
    def join_defect_bound(self):
        return LOG2 / self.index

    def evaluate_affine(self, slope, intercept=0.0):
        return intercept + 0.5 * slope * slope

    def eval_on_set(self, mask):
        runs = mask_runs(self._grid, _to_mask(self._grid, mask))
        sd = 1.0 / np.sqrt(self.index)
        lp = log_gauss_mass(runs, 0.0, sd)
        return lp / self.index if np.isfinite(lp) else lp

    def evaluate(self, phi):
        if phi.grid != self._grid:
            raise ValidationError("GaussianMeanForm: phi lives on another grid")
        v = phi.flat
        if not np.isfinite(v).all():
            raise ValidationError("GaussianMeanForm evaluates finite functions")
        n = self.index
        return log_mgf_piecewise_linear(
            self._grid.coords, v, n, 0.0, 1.0 / np.sqrt(n)
        )


def gaussian_mean_sequence(grid, n_list):
    return FormSequence(
        generator=lambda n: GaussianMeanForm(n, grid),
        n_list=tuple(n_list),
        y_grid=grid,
    )


def constant_sequence(form, n_list):
    return FormSequence(
        generator=lambda n: form, n_list=tuple(n_list), y_grid=form.grid
    )


# ---------------------------------------------------------------------------
# trend extrapolation
# ---------------------------------------------------------------------------

def _trend_basis(ns):
    """Design matrix {1, 1/n, log(n)/n}; the last column needs three indices."""
    ns = np.asarray(ns, dtype=np.float64)
    cols = [np.ones_like(ns), 1.0 / ns]
    if ns.size >= 3:
        cols.append(np.log(ns) / ns)
    return np.stack(cols, axis=1)


def _fit_limit(ns, v):
    """Least-squares limit against {1, 1/n, log(n)/n}; (limit, max residual).

    A fit that overflows has a residual of inf or NaN, which callers
    treat as a failed fit.
    """
    A = _trend_basis(ns)
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.abs(A @ coef - v).max())
    return float(coef[0]), resid


def trend_limit(ns, values):
    """Extrapolated limit of values over indices ns.

    Constant sequences return their value exactly.  An eventually -inf
    (or +inf) sequence returns that value; other non-finite data, and
    finite data whose fit overflows, return NaN (no usable trend).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return float("nan")
    if (v == v[0]).all():
        return float(v[0])
    if not np.isfinite(v).all():
        tail = v[np.isfinite(v).argmin():]
        if (tail == tail[-1]).all():
            return float(v[-1])
        return float("nan") if np.isfinite(v[-1]) else float(v[-1])
    limit, resid = _fit_limit(ns, v)
    return limit if np.isfinite(resid) else float("nan")


def trend_pair(ns, values, *, fit_resid_tol=1e-2):
    """(liminf trend, limsup trend) for a finite prefix.

    When the smooth fit explains the data (max residual within the
    tolerance) the sequence is treated as convergent and both sides
    equal the fitted limit; otherwise the conservative branch estimates
    min/max over the trailing half are reported.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return float("nan"), float("nan")
    if (v == v[0]).all():
        return float(v[0]), float(v[0])
    if np.isfinite(v).all():
        limit, resid = _fit_limit(ns, v)
        if np.isfinite(resid) and resid <= fit_resid_tol:
            return limit, limit
    tail = v[v.size // 2:]
    return float(tail.min()), float(tail.max())


def trend_pairs(ns, values, *, fit_resid_tol=1e-2):
    """(liminf trends, limsup trends) of every column of ``values``.

    Row i holds the values at index ns[i]; column j gets exactly
    ``trend_pair(ns, values[:, j])``.  The fitted columns share one
    multi-right-hand-side least-squares solve, whose coefficients equal
    the one-column solves bit for bit.  Two kinds of column are refitted
    alone: one whose largest entry lies so far from 1 that the solver
    rescales it (and, in a block, every column with it), and one whose
    residual lies within the rounding of the batched product A @ coef
    of the tolerance, since the one-column product may round otherwise.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape[0] == 0:
        return np.full(v.shape[1], np.nan), np.full(v.shape[1], np.nan)
    tail = v[v.shape[0] // 2:]
    lo = tail.min(axis=0)
    hi = tail.max(axis=0)
    const = (v == v[0]).all(axis=0)
    lo[const] = hi[const] = v[0, const]
    fit = np.flatnonzero(np.isfinite(v).all(axis=0) & ~const)
    if fit.size:
        A = _trend_basis(ns)
        w = v[:, fit]
        limit = np.empty(fit.size)
        resid = np.empty(fit.size)
        # LAPACK's gelsd rescales a right-hand side whose largest entry is
        # below 2^-970 or above 2^970
        size = np.abs(w).max(axis=0)
        alone = (size < 2.0**-900) | (size > 2.0**900)
        batch = np.flatnonzero(~alone)
        if batch.size:
            wb = w[:, batch]
            coef, *_ = np.linalg.lstsq(A, wb, rcond=None)
            limit[batch] = coef[0]
            with np.errstate(over="ignore", invalid="ignore"):
                resid[batch] = np.abs(A @ coef - wb).max(axis=0)
                # two roundings of |A @ coef - w| differ by at most 4 eps (|A||coef| + |w|)
                slack = 8.0 * EPS * (np.abs(A) @ np.abs(coef) + np.abs(wb)).max(axis=0)
            alone[batch[np.abs(resid[batch] - fit_resid_tol) <= slack]] = True
        for j in np.flatnonzero(alone):
            limit[j], resid[j] = _fit_limit(ns, w[:, j])
        ok = np.isfinite(resid) & (resid <= fit_resid_tol)
        lo[fit[ok]] = hi[fit[ok]] = limit[ok]
    return lo, hi


def limsup_trend(ns, values, **kw):
    return trend_pair(ns, values, **kw)[1]


def liminf_trend(ns, values, **kw):
    return trend_pair(ns, values, **kw)[0]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatementResult:
    statement: str
    verdict: str
    margin: float
    witness: object = None


@dataclass(frozen=True)
class ConvergenceReport:
    results: dict
    rows: list = field(default_factory=list, repr=False)

    def verdict(self, statement):
        return self.results[statement].verdict

    def all_pass(self):
        return all(r.verdict == PASS for r in self.results.values())

    def to_rows(self):
        return list(self.rows)


def _margin_pair(a, b):
    """a - b with equal infinities counting as zero margin."""
    if a == b:
        return 0.0
    return a - b


def weak_convergence_check(seq, limit_form, test_functions, *, tol=1e-2):
    """Two-sided and one-sided convergence of F_n(φ) toward F(φ).

    ``test_functions`` should be finite-valued grid functions (the grid
    stands in for continuous bounded test functions).  Fewer than three
    sequence indices make every statement INCONCLUSIVE.
    """
    stmts = {"weak": [], "lsc_liminf": [], "usc_limsup": []}
    rows = []
    short = len(seq.n_list) < 3
    for t_idx, phi in enumerate(test_functions):
        vals = [form.evaluate(phi) for _, form in seq.forms()]
        target = limit_form.evaluate(phi)
        if short:
            for s in stmts:
                stmts[s].append((INCONCLUSIVE, 0.0, t_idx))
            continue
        up = limsup_trend(seq.n_list, vals)
        lo = liminf_trend(seq.n_list, vals)
        two = max(abs(_margin_pair(up, target)), abs(_margin_pair(lo, target)))
        stmts["weak"].append((PASS if two <= tol else FAIL, two, t_idx))
        m5 = _margin_pair(lo, target)
        stmts["lsc_liminf"].append((PASS if m5 >= -tol else FAIL, m5, t_idx))
        m6 = _margin_pair(target, up)
        stmts["usc_limsup"].append((PASS if m6 >= -tol else FAIL, m6, t_idx))
        rows.append((t_idx, lo, up, target))

    results = {}
    for name, entries in stmts.items():
        if not entries:
            results[name] = StatementResult(name, INCONCLUSIVE, 0.0)
            continue
        worst = min(entries, key=lambda e: -np.inf if e[0] == FAIL else e[1])
        verdict = (
            INCONCLUSIVE
            if any(e[0] == INCONCLUSIVE for e in entries)
            else (FAIL if any(e[0] == FAIL for e in entries) else PASS)
        )
        results[name] = StatementResult(name, verdict, worst[1], worst[2])
    return ConvergenceReport(results=results, rows=rows)


@dataclass(frozen=True)
class SetBoundRow:
    set_id: str
    kind: str
    lhs_trend: float
    rhs: float
    margin: float
    verdict: str


def ldp_bounds_check(
    seq,
    limit_form,
    open_sets=(),
    closed_sets=(),
    compact_sets=(),
    *,
    tol=1e-3,
):
    """Set-wise deviation bounds against the candidate limit form.

    Open sets: the liminf trend of F_n(G) must reach F(G) from above
    (within tol).  Closed and compact sets: the limsup trend must stay
    below F(C).  Roles are declared by the caller; on a grid window an
    "open" set is one stripped of its boundary nodes.
    """
    rows = []
    short = len(seq.n_list) < 3
    families = [
        ("open", open_sets),
        ("closed", closed_sets),
        ("compact", compact_sets),
    ]
    evaluated = [(n, f) for n, f in seq.forms()]
    for kind, sets in families:
        for sid, mask in enumerate(sets):
            vals = [f.eval_on_set(mask) for _, f in evaluated]
            rhs = limit_form.eval_on_set(mask)
            if short:
                rows.append(SetBoundRow(f"{kind}:{sid}", kind, float("nan"), rhs, 0.0, INCONCLUSIVE))
                continue
            if kind == "open":
                lhs = liminf_trend(seq.n_list, vals)
                margin = _margin_pair(lhs, rhs)
            else:
                lhs = limsup_trend(seq.n_list, vals)
                margin = _margin_pair(rhs, lhs)
            if np.isnan(margin):
                v = INCONCLUSIVE
                margin = 0.0
            else:
                v = PASS if margin >= -tol else FAIL
            rows.append(SetBoundRow(f"{kind}:{sid}", kind, lhs, rhs, float(margin), v))

    results = {}
    for name, kind in (
        ("open_liminf", "open"),
        ("closed_limsup", "closed"),
        ("compact_limsup", "compact"),
    ):
        sel = [r for r in rows if r.kind == kind]
        if not sel:
            continue  # family not supplied
        if any(r.verdict == INCONCLUSIVE for r in sel):
            verdict = INCONCLUSIVE
        elif any(r.verdict == FAIL for r in sel):
            verdict = FAIL
        else:
            verdict = PASS
        worst = min(sel, key=lambda r: r.margin)
        results[name] = StatementResult(name, verdict, worst.margin, worst.set_id)
    return ConvergenceReport(results=results, rows=rows)


@dataclass(frozen=True)
class TightnessEvidence:
    evidence: bool
    trace: list
    defect_bounds: list


def asymptotic_tightness_check(
    seq, windows, *, floor=-1e6, drop=1.0, monotone_tol=1e-9
):
    """Uniform escape of mass from nested windows along the sequence.

    For each window K the limsup trend of F_n(K^c) is recorded; evidence
    requires the trace to be nonincreasing and to either hit the floor
    (treated as -inf) or fall by at least ``drop``, with the forms' join
    defect bounds staying bounded.
    """
    trace = []
    prev_mask = None
    for w in windows:
        m = _to_mask(seq.y_grid, w)
        if prev_mask is not None and (prev_mask & ~m).any():
            raise ValidationError("windows must be nested")
        prev_mask = m
        vals = [f.eval_on_set(~m) for _, f in seq.forms()]
        trace.append(limsup_trend(seq.n_list, vals))
    bounds = [form.join_defect_bound for _, form in seq.forms()]
    ok = bool(trace) and all(np.isfinite(b) for b in bounds)
    if ok:
        # pairwise comparison keeps -inf steps well defined
        ok = all(b <= a + monotone_tol for a, b in zip(trace, trace[1:]))
    if ok:
        ok = trace[-1] <= floor or trace[-1] <= trace[0] - drop
    return TightnessEvidence(evidence=ok, trace=trace, defect_bounds=bounds)


def estimate_rate(seq, delta, *, ceiling=1e6):
    """Pointwise rate estimate from ball evaluations.

    f̂(y) = -(extrapolated limit of) F_n(ball(y, delta)); the estimate is
    off by up to the oscillation of the true rate over the ball.  Nodes
    whose balls never carry mass are reported at the ceiling.
    """
    grid = seq.y_grid
    if grid.dim != 1:
        raise ValidationError("rate estimation runs on 1-D grids")
    if delta < grid.step(0):
        raise ValidationError("delta must be at least the grid spacing")
    c = grid.coords
    forms = seq.forms()
    out = np.empty(grid.size)
    for i in range(grid.size):
        # tiny slack so coordinate rounding cannot drop a boundary node
        mask = np.abs(c - c[i]) <= delta * (1.0 + 1e-12)
        vals = [f.eval_on_set(mask) for _, f in forms]
        lim = trend_limit(seq.n_list, vals)
        out[i] = ceiling if lim == NEG_INF else -lim
    return GridFn(grid, out.reshape(grid.shape))


def default_interval_sets(grid, cap=200):
    """Node-index sub-intervals of a 1-D grid, deterministically capped.

    Returns a list of (closed_mask, open_mask) pairs: the closed role
    keeps both endpoints, the open role strips them.  Intervals span at
    least three steps so the open realization keeps positive width for
    atomless laws.
    """
    if grid.dim != 1:
        raise ValidationError("interval families are 1-D")
    n = grid.size
    pairs = [(i, j) for i in range(n) for j in range(i + 3, n)]
    if len(pairs) > cap:
        stride = len(pairs) / cap
        pairs = [pairs[int(k * stride)] for k in range(cap)]
    out = []
    for i, j in pairs:
        closed = np.zeros(n, dtype=bool)
        closed[i : j + 1] = True
        open_ = np.zeros(n, dtype=bool)
        open_[i + 1 : j] = True
        out.append((closed, open_))
    return out


def report_to_csv(report, path):
    """Write per-set margins: set_id, kind, lhs_trend, rhs, margin, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["set_id", "kind", "lhs_trend", "rhs", "margin", "verdict"])
        for r in report.to_rows():
            w.writerow([r.set_id, r.kind, repr(r.lhs_trend), repr(r.rhs), repr(r.margin), r.verdict])


def report_to_json(report):
    """Statement verdicts plus per-set rows as a JSON-ready dict."""
    from .serialize import num_to_json as _raw

    def num_to_json(v):
        return None if np.isnan(v) else _raw(v)  # inconclusive rows carry NaN

    out = {
        "statements": {
            name: {
                "verdict": res.verdict,
                "margin": num_to_json(res.margin),
                "witness": res.witness,
            }
            for name, res in report.results.items()
        }
    }
    rows = []
    for r in report.to_rows():
        if isinstance(r, SetBoundRow):
            rows.append(
                {
                    "set_id": r.set_id,
                    "kind": r.kind,
                    "lhs_trend": num_to_json(r.lhs_trend),
                    "rhs": num_to_json(r.rhs),
                    "margin": num_to_json(r.margin),
                    "verdict": r.verdict,
                }
            )
    if rows:
        out["sets"] = rows
    return out
