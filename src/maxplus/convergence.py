"""Finite-prefix convergence checks for sequences of quasi-linear forms.

Limits over the sequence index are never certified: every verdict is a
finite-prefix trend with a declared extrapolation rule and tolerance.
There is one rule, ``trend_pairs``, and every trend in the package
(limit log-moments, set bounds, the tail-rate trend) reads it: values
are fitted against the basis {1, 1/n, log(n)/n} (least squares over the
available indices) and the constant is read off; when the fit does not
explain the data, the liminf / limsup trends fall back to the minimum /
maximum over the trailing half.

Statements checked: (open-liminf) and (closed-limsup) set bounds, with
roles the caller declares.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._normal import log_gauss_mass, log_mgf_piecewise_linear, mask_runs
from .errors import ValidationError
from .forms import LOG2, QuasiLinearForm
from .grids import Grid, node_mask

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# a trend fit whose max residual stays within this explains its column
FIT_RESID_TOL = 1e-2


@dataclass(frozen=True)
class FormSequence:
    """A sequence of forms over one Y-grid, sampled at positive integer indices."""

    generator: object  # index -> QuasiLinearForm
    n_list: tuple
    y_grid: Grid

    def __post_init__(self):
        for k in self.n_list:
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
                raise ValidationError(f"n_list entries are positive integers, got {k!r}")
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

    @classmethod
    def affine_rows(cls, forms, slopes, intercept=0.0):
        # the value does not depend on the index
        row = forms[0].evaluate_affine(np.asarray(slopes, dtype=np.float64), intercept)
        return np.broadcast_to(row, (len(forms),) + row.shape)

    def eval_on_set(self, mask):
        runs = mask_runs(self._grid, node_mask(self._grid, mask))
        sd = 1.0 / np.sqrt(self.index)
        lp = log_gauss_mass(runs, 0.0, sd)
        return lp / self.index if np.isfinite(lp) else lp

    def evaluate(self, phi):
        if phi.grid != self._grid:
            raise ValidationError("GaussianMeanForm: phi lives on another grid")
        n = self.index
        return log_mgf_piecewise_linear(
            self._grid.coords, phi.flat, n, 0.0, 1.0 / np.sqrt(n)
        )


def gaussian_mean_sequence(grid, n_list):
    return FormSequence(
        generator=lambda n: GaussianMeanForm(n, grid),
        n_list=tuple(n_list),
        y_grid=grid,
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


def trend_pairs(ns, values):
    """(liminf trends, limsup trends) of every column of ``values``.

    Row i holds the values at index ns[i].  When the smooth fit explains
    a column (max residual within ``FIT_RESID_TOL``, limit finite) the
    column is treated as convergent and both sides equal the fitted
    limit; otherwise the conservative estimates min/max over the
    trailing half are reported.  A constant column returns its value
    exactly.

    Each fitted column is first scaled by the power of two that puts its
    largest |entry| in [1/2, 1).  Scaling up is exact; scaling down rounds
    only entries that land below 2^-1022, about 2^1022 times smaller than
    the largest, and the one-column rule rounds them the same way.  The
    scaled columns leave LAPACK's gelsd none to rescale, so one
    least-squares solve over all columns gives each column the
    coefficients of its own one-column solve.  The residual is an element-wise sum over the basis columns
    minus the column, the same float expression for one column or many.
    Limit and residual are scaled back; a limit beyond the float range
    is no fit.
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
        _, e = np.frexp(np.abs(w).max(axis=0))
        np.ldexp(w, -e, out=w)
        coef = np.linalg.lstsq(A, w, rcond=None)[0]
        # the residual overwrites w one index row at a time
        for a, row in zip(A, w):
            fitted = a[0] * coef[0]
            for j in range(1, a.size):
                fitted += a[j] * coef[j]
            np.subtract(fitted, row, out=row)
        np.abs(w, out=w)
        with np.errstate(over="ignore"):
            limit = np.ldexp(coef[0], e)
            resid = np.ldexp(w.max(axis=0), e)
        ok = np.isfinite(limit) & (resid <= FIT_RESID_TOL)
        lo[fit[ok]] = hi[fit[ok]] = limit[ok]
    return lo, hi


def limsup_trend(ns, values):
    return float(trend_pairs(ns, np.asarray(values, dtype=np.float64)[:, None])[1][0])


def liminf_trend(ns, values):
    return float(trend_pairs(ns, np.asarray(values, dtype=np.float64)[:, None])[0][0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatementResult:
    verdict: str
    margin: float
    witness: object = None


@dataclass(frozen=True)
class ConvergenceReport:
    results: dict
    rows: list = field(default_factory=list, repr=False)

    def all_pass(self):
        return all(r.verdict == PASS for r in self.results.values())

    def to_rows(self):
        return list(self.rows)


def _margin_pair(a, b):
    """a - b with equal infinities counting as zero margin."""
    if a == b:
        return 0.0
    return a - b


@dataclass(frozen=True)
class SetBoundRow:
    set_id: str
    kind: str
    lhs_trend: float
    rhs: float
    margin: float
    verdict: str


def ldp_bounds_check(seq, limit_form, open_sets=(), closed_sets=(), *, tol=1e-3):
    """Set-wise deviation bounds against the candidate limit form.

    Open sets: the liminf trend of F_n(G) must reach F(G) from above
    (within tol).  Closed sets: the limsup trend must stay below F(C).
    Roles are declared by the caller; on a grid window an "open" set is
    one stripped of its boundary nodes.  The sets of one role are
    evaluated into one (indices x sets) array and fitted in one
    ``trend_pairs`` call.
    """
    rows = []
    results = {}
    forms = [f for _, f in seq.forms()]
    for name, kind, sets in (
        ("open_liminf", "open", open_sets),
        ("closed_limsup", "closed", closed_sets),
    ):
        if len(sets) == 0:
            continue  # family not supplied
        rhs = [limit_form.eval_on_set(mask) for mask in sets]
        if len(seq.n_list) < 3:
            sel = [
                SetBoundRow(f"{kind}:{sid}", kind, float("nan"), r, 0.0, INCONCLUSIVE)
                for sid, r in enumerate(rhs)
            ]
        else:
            vals = np.array(
                [[f.eval_on_set(mask) for mask in sets] for f in forms], dtype=np.float64
            )
            lo, hi = trend_pairs(seq.n_list, vals)
            sel = []
            for sid, r in enumerate(rhs):
                if kind == "open":
                    lhs = float(lo[sid])
                    margin = _margin_pair(lhs, r)
                else:
                    lhs = float(hi[sid])
                    margin = _margin_pair(r, lhs)
                if np.isnan(margin):
                    v = INCONCLUSIVE
                    margin = 0.0
                else:
                    v = PASS if margin >= -tol else FAIL
                sel.append(SetBoundRow(f"{kind}:{sid}", kind, lhs, r, float(margin), v))
        rows += sel
        if any(r.verdict == INCONCLUSIVE for r in sel):
            verdict = INCONCLUSIVE
        elif any(r.verdict == FAIL for r in sel):
            verdict = FAIL
        else:
            verdict = PASS
        worst = min(sel, key=lambda r: r.margin)
        results[name] = StatementResult(verdict, worst.margin, worst.set_id)
    return ConvergenceReport(results=results, rows=rows)


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
