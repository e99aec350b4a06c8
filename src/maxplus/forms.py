"""Quasi-linear forms on grid functions.

A quasi-linear form F is isotone, additively homogeneous, and satisfies
F(φ∨ψ) <= α + F(φ) ∨ F(ψ) for some α; the best such α is the join
defect.  Max-plus forms (defect <= 0) are represented by a density f via
F(φ) = max_y (φ(y) - f(y)); log-integral forms ε log ∫ e^{φ/ε} dμ have
defect at most ε log 2.

Indicator evaluation: on a finite grid every function is both l.s.c. and
u.s.c., so the l.s.c. and maximal extensions of a form collapse onto
direct evaluation; set values F(A) are computed straight from the
max-plus indicator of A.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import (
    NEG_INF,
    POS_INF,
    Grid,
    GridFn,
    check_real,
    check_values,
    indicator,
    node_mask,
    otimes,
    require_same_grid,
)

LOG2 = float(np.log(2.0))


def logsumexp_weighted(terms):
    """log Σ e^{t} over the finite terms, max-shift stabilised.

    -inf terms are skipped; any +inf term dominates; an empty or all
    -inf input gives -inf.
    """
    t = np.asarray(terms, dtype=np.float64)
    if t.size == 0:
        return NEG_INF
    m = t.max()
    if m == NEG_INF:
        return NEG_INF
    if m == POS_INF:
        return POS_INF
    return float(m + np.log(np.exp(t - m).sum()))


class QuasiLinearForm:
    """Interface shared by all form variants."""

    grid = None
    join_defect_bound = 0.0
    # a class may set affine_rows to a classmethod (forms, slopes,
    # intercept) -> array whose row s holds forms[s].evaluate_affine at
    # every 1-D slope, bit for bit; families of such forms are then
    # evaluated in one call per index
    affine_rows = None
    # a class may set evaluate_many to a classmethod (forms, phi) -> list
    # of forms[s].evaluate(phi), bit for bit; a table kernel's row then
    # takes one call for all the forms of that class.  A subclass does not
    # inherit it, as its evaluate may differ
    evaluate_many = None

    def evaluate(self, phi):
        raise NotImplementedError

    def evaluate_affine(self, slope, intercept=0.0):
        """F on the affine test function y ↦ slope·y + intercept.

        The default samples the affine function onto the form's grid;
        closed-form variants override this with exact expressions.
        """
        phi = _affine_gridfn(self.grid, slope, intercept)
        return self.evaluate(phi)

    def eval_on_set(self, mask):
        """F of the max-plus indicator of a node set; empty set gives -inf."""
        return self.evaluate(indicator(self.grid, mask))


def _affine_gridfn(grid, slope, intercept):
    c = grid.coords
    if grid.dim == 1:
        vals = slope * c + intercept
    else:
        s = np.asarray(slope, dtype=np.float64)
        vals = s[0] * c[:, 0] + s[1] * c[:, 1] + intercept
    return GridFn(grid, vals.reshape(grid.shape))


@dataclass(frozen=True)
class MaxPlusForm(QuasiLinearForm):
    """Max-plus linear form with a density: F(φ) = max_y (φ(y) - f(y))."""

    density: GridFn

    @property
    def grid(self):
        return self.density.grid

    def evaluate(self, phi):
        require_same_grid(phi, self.grid, "MaxPlusForm.evaluate")
        return float(otimes(phi.flat, -self.density.flat).max())

    def eval_on_set(self, mask):
        m = node_mask(self.grid, mask)
        if not m.any():
            return NEG_INF
        return float(-self.density.flat[m].min())


@dataclass(frozen=True)
class LogIntegralForm(QuasiLinearForm):
    """F(φ) = ε log Σ_y w_y e^{φ(y)/ε} for nonnegative weights w."""

    weight_grid: Grid
    epsilon: float
    weights: np.ndarray

    def __post_init__(self):
        if not 0 < check_real(self.epsilon, "epsilon") < POS_INF:
            raise ValidationError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        w = check_values(self.weights, "weights").reshape(-1)
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValidationError("weights must be finite and nonnegative")
        if not (w > 0).any():  # w.sum() can overflow
            raise ValidationError("weights must carry positive mass")
        if w.size != self.weight_grid.size:
            raise ValidationError("one weight per grid node expected")
        lw = np.full(w.shape, NEG_INF)
        pos = w > 0
        lw[pos] = np.log(w[pos])
        w = w.copy()
        w.setflags(write=False)
        lw.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_log_w", lw)

    @property
    def grid(self):
        return self.weight_grid

    @property
    def join_defect_bound(self):
        return self.epsilon * LOG2

    def evaluate(self, phi):
        require_same_grid(phi, self.grid, "LogIntegralForm.evaluate")
        t = otimes(phi.flat / self.epsilon, self._log_w)
        return _eps_scale(self.epsilon, logsumexp_weighted(t))

    def eval_on_set(self, mask):
        m = node_mask(self.grid, mask)
        return _eps_scale(self.epsilon, logsumexp_weighted(self._log_w[m]))


def _eps_scale(eps, logval):
    if logval == NEG_INF or logval == POS_INF:
        return logval
    return float(eps * logval)


@dataclass(frozen=True)
class JoinDefectEstimate:
    defect: float
    witness: object
    isotonicity_violations: int
    homogeneity_max_err: float


def _random_gridfns(grid, rng, n, neg_inf_rate=0.15):
    out = []
    for _ in range(n):
        vals = rng.uniform(-4.0, 4.0, size=grid.size)
        drop = rng.random(grid.size) < neg_inf_rate
        if drop.all():
            drop[rng.integers(grid.size)] = False
        vals[drop] = NEG_INF
        out.append(GridFn(grid, vals.reshape(grid.shape)))
    return out


def _split_pairs(grid, cap=64):
    """Indicator pairs likely to expose the join defect: singleton vs rest
    and a balanced split."""
    n = grid.size
    pairs = []
    half = np.zeros(n, dtype=bool)
    half[: n // 2] = True
    if half.any() and (~half).any():
        pairs.append((half, ~half))
    for i in range(min(n, cap)):
        a = np.zeros(n, dtype=bool)
        a[i] = True
        pairs.append((a, ~a))
    return pairs


def join_defect_estimate(form, n_pairs=200, rng_seed=0):
    """Sampled lower bound on the join defect, with side checks.

    Maximises F(φ∨ψ) - F(φ) ∨ F(ψ) over random pairs plus indicator
    splits; also verifies isotonicity and additive homogeneity on the
    samples (homogeneity error is reported, not asserted, since log-sum
    arithmetic is only homogeneous up to rounding).
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs must be >= 1")
    grid = form.grid
    rng = np.random.default_rng(rng_seed)
    defect = NEG_INF
    witness = None
    iso_bad = 0
    hom_err = 0.0

    def consider(phi, psi, label):
        nonlocal defect, witness
        join = GridFn(grid, np.maximum(phi.values, psi.values))
        fj = form.evaluate(join)
        fm = max(form.evaluate(phi), form.evaluate(psi))
        inc = 0.0 if fj == fm else fj - fm
        if np.isnan(inc):  # both -inf or both +inf
            inc = 0.0
        if inc > defect:
            defect = inc
            witness = label

    for idx in range(n_pairs):
        phi, psi = _random_gridfns(grid, rng, 2)
        consider(phi, psi, ("random", idx))
        # isotonicity on the ordered pair (φ, φ∨ψ)
        join = GridFn(grid, np.maximum(phi.values, psi.values))
        if form.evaluate(phi) > form.evaluate(join):
            iso_bad += 1
        lam = float(rng.uniform(-2, 2))
        shifted = GridFn(grid, otimes(phi.values, lam))
        lhs = form.evaluate(shifted)
        rhs = otimes(lam, form.evaluate(phi))
        if lhs != rhs and not (lhs == NEG_INF and rhs == NEG_INF):
            hom_err = max(hom_err, abs(lhs - rhs))

    for a, b in _split_pairs(grid):
        consider(indicator(grid, a), indicator(grid, b), ("split", int(a.sum())))

    return JoinDefectEstimate(
        defect=float(defect),
        witness=witness,
        isotonicity_violations=iso_bad,
        homogeneity_max_err=float(hom_err),
    )
