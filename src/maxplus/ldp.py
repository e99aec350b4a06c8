"""Rate-function identification pipeline.

From a family of form sequences and a kernel: extrapolate the limit
log-moment values g(x) = limsup_n sup_i F_{n,i}(b(x,·)), conjugate them
into the candidate rate function (the dual conjugate of g), build the
covering on the locally-bounded part of g, and emit deviation bounds or
a full identification verdict.

Verdicts: FULL_LDP requires a topologically minimal covering, asserted
limits, and assumption evidence; BOUNDS_ONLY keeps the one-sided bounds
(upper on closed sets everywhere, lower on open sets intersected with
the pinned set); INCONCLUSIVE means the evidence does not support even
those.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _CHUNK_ROWS
from .conjugacy import (
    EVIDENCE,
    CoercivityReport,
    Kernel,
    VIOLATION,
    coercivity_report,
    inner_window_mask,
    superlevel_compactness_report,
)
from .covering import build_covering, lifted_candidate, quasicontinuity_check
from .convergence import ldp_bounds_check, trend_pairs
from .errors import ValidationError
from .forms import MaxPlusForm, _to_mask
from .grids import NEG_INF, POS_INF, GridFn, domain_masks


@dataclass(frozen=True)
class GartnerInput:
    """Input family for the identification pipeline.

    One sequence reproduces the single-sequence theorem; several model a
    control family whose supremum defines the limit values.  ``mode`` is
    ``limsup`` or ``limit-asserted``; the latter additionally verifies
    that liminf and limsup trends agree, downgrading with a warning when
    they do not.
    """

    sequences: tuple
    kernel: Kernel
    mode: str = "limsup"

    def __post_init__(self):
        seqs = tuple(self.sequences)
        if not seqs:
            raise ValidationError("need at least one form sequence")
        for s in seqs:
            if s.y_grid != self.kernel.y_grid:
                raise ValidationError("all sequences must share the kernel's Y-grid")
        if self.mode not in ("limsup", "limit-asserted"):
            raise ValidationError("mode must be limsup or limit-asserted")
        object.__setattr__(self, "sequences", seqs)


def _value_matrix(seq, kernel):
    """V[i, x] = F_{n_i}(b(x,·)) for every index n_i and x-node.

    On a 1-D bilinear kernel the slices are affine; a form whose class
    declares ``array_affine`` fills its row in one call over all slopes,
    any other form is called once per slope.
    """
    forms = [form for _, form in seq.forms()]
    nx = kernel.x_grid.size
    V = np.empty((len(forms), nx))
    if kernel.kind == "bilinear":
        coords = kernel.x_grid.coords
        flat = kernel.x_grid.dim == 1
        slopes = list(coords) if flat else [tuple(c) for c in coords]
        for i, form in enumerate(forms):
            if flat and getattr(form, "array_affine", False):
                V[i] = form.evaluate_affine(coords, 0.0)
            else:
                V[i] = [form.evaluate_affine(s, 0.0) for s in slopes]
    else:
        for x in range(nx):
            row = kernel.row(x)
            V[:, x] = [form.evaluate(row) for form in forms]
    return V


@dataclass(frozen=True)
class LimitDiagnostics:
    mode: str
    downgraded: bool
    limit_gaps: np.ndarray
    edge_unbounded: np.ndarray


def limit_log_moment(gartner_input, *, limit_tol=1e-6, sup_edge_to_inf=False):
    """Per-node limit of the generalized log-moment values.

    For each x: the limsup trend over n of each sequence's values on the
    kernel slice b(x,·), then the sup over the family.  In
    ``limit-asserted`` mode liminf and limsup trends must agree within
    ``limit_tol``; a mismatch downgrades the whole run to limsup mode
    with a warning.

    With ``sup_edge_to_inf`` (for families indexed by a control grid) a
    supremum strictly attained at the family's first or last member is
    treated as unbounded and reported as +inf.
    """
    k = gartner_input.kernel
    nx = k.x_grid.size
    per_member = np.empty((len(gartner_input.sequences), nx))
    gaps = np.zeros(nx)
    for si, seq in enumerate(gartner_input.sequences):
        lo, up = trend_pairs(seq.n_list, _value_matrix(seq, k))
        per_member[si] = up
        if gartner_input.mode == "limit-asserted":
            ne = up != lo
            gap = np.zeros(nx)
            gap[ne] = np.abs(up[ne] - lo[ne])
            gaps = np.fmax(gaps, gap)  # a NaN gap is skipped, as max() does

    downgraded = False
    if gartner_input.mode == "limit-asserted" and np.nanmax(gaps, initial=0.0) > limit_tol:
        warnings.warn(
            "limsup/liminf trends disagree; downgrading to limsup mode",
            stacklevel=2,
        )
        downgraded = True

    g = per_member.max(axis=0)
    edge = np.zeros(nx, dtype=bool)
    if sup_edge_to_inf and per_member.shape[0] >= 3:
        arg = per_member.argmax(axis=0)
        last = per_member.shape[0] - 1
        # only a supremum strictly climbing into the family edge counts
        edge = ((arg == 0) & (per_member[0] > per_member[1])) | (
            (arg == last) & (per_member[last] > per_member[last - 1])
        )
        g = np.where(edge, POS_INF, g)

    diag = LimitDiagnostics(
        mode=gartner_input.mode,
        downgraded=downgraded,
        limit_gaps=gaps,
        edge_unbounded=np.flatnonzero(edge),
    )
    return GridFn(k.x_grid, g.reshape(k.x_grid.shape)), diag


FULL_LDP = "FULL_LDP"
BOUNDS_ONLY = "BOUNDS_ONLY"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TightnessCriterion:
    holds: bool
    witness: object  # x node index or None
    strongly_coercive: bool
    coercivity: CoercivityReport = field(repr=False)  # the report behind strongly_coercive


def tightness_criterion(kernel, g, *, window_margin=0.1, sides=None, x_sides=None, stencil_radius=1):
    """Search for a bounded-below kernel row based at a locally-bounded node.

    Asymptotic tightness of the family follows when the kernel is
    strongly coercive and some x0 with locally bounded g has b(x0,·)
    bounded below.  On a window, bounded below means the row's minimum is
    not pinned to an edge that emulates infinity.  The witness is the
    first such x0 in node order; the rows are searched in blocks.
    """
    co = coercivity_report(
        kernel, window_margin, stencil_radius=stencil_radius, sides=sides,
        x_sides=x_sides,
    )
    strong = co.all_coercive
    masks = domain_masks(g, stencil_radius)
    nodes = np.flatnonzero(masks.idom.reshape(-1))
    b = kernel.matrix()
    inner = inner_window_mask(kernel.y_grid, window_margin, sides)
    witness = None
    for lo in range(0, nodes.size, _CHUNK_ROWS):
        xs = nodes[lo : lo + _CHUNK_ROWS]
        rows = b[xs]
        low = rows.min(axis=1)
        hit = (low > NEG_INF) & (inner & (rows == low[:, None])).any(axis=1)
        if hit.any():
            witness = int(xs[hit.argmax()])
            break
    return TightnessCriterion(
        holds=strong and witness is not None,
        witness=witness,
        strongly_coercive=strong,
        coercivity=co,
    )


@dataclass(frozen=True)
class AssumptionEvidence:
    discrete_space: bool
    coercive: str
    upper_coercive: str
    dual_superlevel_compact: str
    quasicontinuous_dual: bool
    tightness: TightnessCriterion

    @property
    def bounds_ready(self):
        """Evidence backing the one-sided deviation bounds."""
        return (
            self.upper_coercive == EVIDENCE
            and (self.coercive == EVIDENCE or self.dual_superlevel_compact == EVIDENCE)
            and self.quasicontinuous_dual
            and self.tightness.holds
        )


@dataclass(frozen=True)
class GartnerOutput:
    log_moment: GridFn  # g on the X-grid
    rate_lower: GridFn  # dual conjugate of g on the Y-grid
    pinned: np.ndarray  # y-nodes where the rate is identified
    verdict: str
    assumptions: AssumptionEvidence
    covering: object
    limit_form: MaxPlusForm  # max-plus form with the candidate rate density
    diagnostics: LimitDiagnostics
    bound_rows: list = field(default_factory=list)


def pipeline(
    gartner_input,
    *,
    stencil_radius=1,
    window_margin=0.1,
    sides=None,
    x_sides=None,
    limit_tol=1e-6,
    sup_edge_to_inf=False,
    qc_tol=None,
    open_sets=(),
    closed_sets=(),
    verify_bounds=False,
    bound_tol=1e-3,
):
    """Run the full identification pipeline.

    Computes the limit log-moment values, their dual conjugate (the rate
    lower bound), the covering on the locally bounded nodes, the pinned
    set, and assumption evidence.  Optional set families are bounded
    against the candidate limit form: upper bounds F̄(C) on closed sets,
    lower bounds F̄(G ∩ pinned) on open sets; with ``verify_bounds`` the
    finite-prefix trends of the sequences are checked against them.
    Weak evidence degrades the verdict, never aborts.
    """
    k = gartner_input.kernel
    g, diag = limit_log_moment(
        gartner_input, limit_tol=limit_tol, sup_edge_to_inf=sup_edge_to_inf
    )
    masks = domain_masks(g, stencil_radius)
    xprime = masks.idom.reshape(-1)
    cov = build_covering(g, k, xprime, stencil_radius)
    rate = cov.subdiff.dual
    density = lifted_candidate(rate)
    fbar = MaxPlusForm(density)

    tight = tightness_criterion(
        k, g, window_margin=window_margin, sides=sides, x_sides=x_sides,
        stencil_radius=stencil_radius,
    )
    co = tight.coercivity
    fc = superlevel_compactness_report(density, k, window_margin, sides=sides)
    # sampled-smooth rate candidates close with O(h^2 curvature) gaps; a
    # one-step tolerance keeps them quasi-continuous while spikes still fail
    if qc_tol is None:
        qc_tol = k.y_grid.step(0)
    qc_ok, _ = quasicontinuity_check(density, stencil_radius, tol=qc_tol)
    assumptions = AssumptionEvidence(
        discrete_space=True,
        coercive=EVIDENCE if co.all_coercive else VIOLATION,
        upper_coercive=EVIDENCE if co.all_upper_coercive else VIOLATION,
        dual_superlevel_compact=EVIDENCE if fc.all_evidence else VIOLATION,
        quasicontinuous_dual=qc_ok,
        tightness=tight,
    )

    pinned_mask = np.zeros(k.y_grid.size, dtype=bool)
    pinned_mask[cov.pinned] = True

    rows = []
    for sid, mask in enumerate(closed_sets):
        rhs = fbar.eval_on_set(mask)
        rows.append(("closed", sid, rhs))
    for sid, mask in enumerate(open_sets):
        rhs = fbar.eval_on_set(_to_mask(k.y_grid, mask) & pinned_mask)
        rows.append(("open", sid, rhs))

    bound_rows = []
    if verify_bounds and (open_sets or closed_sets):
        pinned_open = [
            _to_mask(k.y_grid, m) & pinned_mask for m in open_sets
        ]
        for seq in gartner_input.sequences:
            rep = ldp_bounds_check(
                seq,
                fbar,
                open_sets=pinned_open,
                closed_sets=list(closed_sets),
                tol=bound_tol,
            )
            bound_rows.extend(rep.to_rows())
    else:
        bound_rows = [
            {"kind": kind, "set": sid, "limit_bound": rhs} for kind, sid, rhs in rows
        ]

    limits_ok = gartner_input.mode == "limit-asserted" and not diag.downgraded
    if cov.covered and cov.minimal_top and limits_ok and assumptions.bounds_ready:
        verdict = FULL_LDP
    elif assumptions.bounds_ready:
        verdict = BOUNDS_ONLY
    else:
        verdict = INCONCLUSIVE

    return GartnerOutput(
        log_moment=g,
        rate_lower=rate,
        pinned=cov.pinned,
        verdict=verdict,
        assumptions=assumptions,
        covering=cov,
        limit_form=fbar,
        diagnostics=diag,
        bound_rows=bound_rows,
    )
