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

from ._kernels import block_rows
from .conjugacy import (
    EVIDENCE,
    CoercivityReport,
    Kernel,
    coercivity_report,
    inner_window_mask,
)
from .covering import (
    AssumptionEvidence,
    assumption_evidence,
    build_covering,
    lifted_candidate,
)
from .convergence import trend_pairs
from .errors import ValidationError
from .forms import MaxPlusForm
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


def _value_tensor(seqs, kernel):
    """V[i, s, x] = F^s_{n_i}(b(x,·)) for sequences s sharing one n_list.

    On a 1-D bilinear kernel the slices are affine: at each index the
    forms of one class that defines ``affine_rows`` fill their rows in one
    call over all slopes; any other form is called once per slope.
    """
    forms = [[form for _, form in seq.forms()] for seq in seqs]
    nx = kernel.x_grid.size
    V = np.empty((len(seqs[0].n_list), len(seqs), nx))
    if kernel.kind == "bilinear":
        coords = kernel.x_grid.coords
        flat = kernel.x_grid.dim == 1
        slopes = list(coords) if flat else [tuple(c) for c in coords]
        for i, at_n in enumerate(zip(*forms)):
            classes = {}
            for s, form in enumerate(at_n):
                classes.setdefault(type(form), []).append(s)
            for cls, members in classes.items():
                rows = getattr(cls, "affine_rows", None) if flat else None
                if rows is not None:
                    V[i, members] = rows([at_n[s] for s in members], coords, 0.0)
                else:
                    for s in members:
                        V[i, s] = [at_n[s].evaluate_affine(y, 0.0) for y in slopes]
    else:
        for x in range(nx):
            row = kernel.row(x)
            V[:, :, x] = [[form.evaluate(row) for form in at_n] for at_n in zip(*forms)]
    return V


@dataclass(frozen=True)
class LimitDiagnostics:
    downgraded: bool
    limit_gaps: np.ndarray
    edge_unbounded: np.ndarray


def limit_log_moment(gartner_input, *, sup_edge_to_inf=False):
    """Per-node limit of the generalized log-moment values.

    For each x: the limsup trend over n of each sequence's values on the
    kernel slice b(x,·), then the sup over the family.  In
    ``limit-asserted`` mode liminf and limsup trends must agree within
    the constant tolerance 1e-6; a mismatch downgrades the whole run to
    limsup mode with a warning.

    With ``sup_edge_to_inf`` (for families indexed by a control grid) a
    supremum strictly attained at the family's first or last member is
    treated as unbounded and reported as +inf.  The rule needs a member
    between the two edges: a family of fewer than 3 members is rejected.
    """
    k = gartner_input.kernel
    nx = k.x_grid.size
    seqs = gartner_input.sequences
    if sup_edge_to_inf and len(seqs) < 3:
        raise ValidationError(
            f"sup_edge_to_inf needs a family of at least 3 members, got {len(seqs)}"
        )
    lo = np.empty((len(seqs), nx))
    per_member = np.empty((len(seqs), nx))
    groups = {}
    for si, seq in enumerate(seqs):
        groups.setdefault(seq.n_list, []).append(si)
    for ns, members in groups.items():
        V = _value_tensor([seqs[si] for si in members], k)
        lo_g, up_g = trend_pairs(ns, V.reshape(len(ns), -1))
        lo[members] = lo_g.reshape(-1, nx)
        per_member[members] = up_g.reshape(-1, nx)

    gaps = np.zeros(nx)
    if gartner_input.mode == "limit-asserted":
        ne = per_member != lo
        gap = np.zeros_like(lo)
        gap[ne] = np.abs(per_member[ne] - lo[ne])
        gaps = np.fmax.reduce(gap, axis=0, initial=0.0)  # a NaN gap is skipped, as max() does

    downgraded = False
    if gartner_input.mode == "limit-asserted" and np.nanmax(gaps, initial=0.0) > 1e-6:
        warnings.warn(
            "limsup/liminf trends disagree; downgrading to limsup mode",
            stacklevel=2,
        )
        downgraded = True

    g = per_member.max(axis=0)
    edge = np.zeros(nx, dtype=bool)
    if sup_edge_to_inf:
        arg = per_member.argmax(axis=0)
        last = per_member.shape[0] - 1
        # only a supremum strictly climbing into the family edge counts
        edge = ((arg == 0) & (per_member[0] > per_member[1])) | (
            (arg == last) & (per_member[last] > per_member[last - 1])
        )
        g = np.where(edge, POS_INF, g)

    diag = LimitDiagnostics(
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
    coercivity: CoercivityReport = field(repr=False)  # the report behind holds


def tightness_criterion(kernel, g, *, sides=None, x_sides=None, _masks=None):
    """Search for a bounded-below kernel row based at a locally-bounded node.

    Asymptotic tightness of the family follows when the kernel is
    strongly coercive and some x0 with locally bounded g has b(x0,·)
    bounded below.  On a window, bounded below means the row's minimum is
    not pinned to an edge that emulates infinity.  The witness is the
    first such x0 in node order.  The coercivity balls and the
    local-boundedness stencil have radius 1.  ``_masks`` is
    ``domain_masks(g)`` when the caller has already built it.

    On a 1-D bilinear kernel each row fl(x·y) is monotone along the
    sorted Y-grid, since rounding is monotone: its minimum is the smaller
    of its two end cells, and the nodes reaching it form a prefix or a
    suffix.  The minimum is then reached inside the window, one index
    range, iff it is reached at one of the window's two ends, so four
    products decide a row.  Other kernels are searched in row blocks.
    """
    co = coercivity_report(kernel, sides=sides, x_sides=x_sides)
    masks = _masks if _masks is not None else domain_masks(g)
    nodes = np.flatnonzero(masks.idom.reshape(-1))
    inner = inner_window_mask(kernel.y_grid, sides)
    if kernel.kind == "bilinear" and kernel.x_grid.dim == 1:
        witness = _end_witness(kernel, nodes, np.flatnonzero(inner))
    else:
        witness = _block_witness(kernel, nodes, inner)
    return TightnessCriterion(
        holds=co.all_coercive and witness is not None,
        witness=witness,
        coercivity=co,
    )


def _end_witness(kernel, nodes, inside):
    """The witness on a 1-D bilinear kernel, from each row's end cells and
    the end cells of the window ``inside`` (sorted Y-indices); its cells
    are finite, so every row minimum is."""
    if inside.size == 0:
        return None
    y = kernel.y_grid.coords
    x = kernel.x_grid.coords[nodes]
    low = np.minimum(x * y[0], x * y[-1])
    hit = (x * y[inside[0]] == low) | (x * y[inside[-1]] == low)
    return int(nodes[hit.argmax()]) if hit.any() else None


def _block_witness(kernel, nodes, inner):
    """The first of ``nodes`` whose row minimum is finite and reached on
    the ``inner`` mask, in blocks of rows; or None."""
    step = block_rows(kernel.y_grid.size)
    for lo in range(0, nodes.size, step):
        xs = nodes[lo : lo + step]
        rows = kernel.rows(xs)
        low = rows.min(axis=1)
        hit = (low > NEG_INF) & (inner & (rows == low[:, None])).any(axis=1)
        if hit.any():
            return int(xs[hit.argmax()])
    return None


@dataclass(frozen=True)
class GartnerOutput:
    log_moment: GridFn  # g on the X-grid
    rate_lower: GridFn  # dual conjugate of g on the Y-grid
    pinned: np.ndarray  # y-nodes where the rate is identified
    verdict: str
    assumptions: AssumptionEvidence
    tightness: TightnessCriterion
    covering: object
    limit_form: MaxPlusForm  # max-plus form with the candidate rate density


def pipeline(gartner_input, *, sides=None, x_sides=None, sup_edge_to_inf=False):
    """Run the full identification pipeline.

    Computes the limit log-moment values (limit tolerance 1e-6, see
    ``limit_log_moment``), their dual conjugate (the rate lower bound),
    the covering on the locally bounded nodes, the pinned set, and
    assumption evidence.  The grids sample a continuum, so every stencil
    (local boundedness, the covering's balls, coercivity balls, the
    quasi-continuity closing) has radius 1.  ``limit_form`` is the
    max-plus form of the candidate rate density, against which
    ``ldp_bounds_check`` bounds set families.  Weak evidence degrades the verdict, never aborts.
    """
    k = gartner_input.kernel
    g, diag = limit_log_moment(gartner_input, sup_edge_to_inf=sup_edge_to_inf)
    masks = domain_masks(g)
    xprime = masks.idom.reshape(-1)
    cov = build_covering(g, k, xprime, _masks=masks)
    rate = cov.subdiff.dual
    density = lifted_candidate(rate)
    fbar = MaxPlusForm(density)

    tight = tightness_criterion(k, g, sides=sides, x_sides=x_sides, _masks=masks)
    # sampled-smooth rate candidates close with O(h^2 curvature) gaps; a
    # one-step tolerance keeps them quasi-continuous while spikes still fail
    ev = assumption_evidence(
        tight.coercivity, density, k, sides=sides, closing_tol=k.y_grid.step(0),
    )
    # the evidence backing the one-sided deviation bounds
    bounds_ready = (
        ev.upper_coercive == EVIDENCE
        and (ev.coercive == EVIDENCE or ev.dual_superlevel_compact == EVIDENCE)
        and ev.quasicontinuous_dual
        and tight.holds
    )

    limits_ok = gartner_input.mode == "limit-asserted" and not diag.downgraded
    if cov.covered and cov.minimal_top and limits_ok and bounds_ready:
        verdict = FULL_LDP
    elif bounds_ready:
        verdict = BOUNDS_ONLY
    else:
        verdict = INCONCLUSIVE

    return GartnerOutput(
        log_moment=g,
        rate_lower=rate,
        pinned=cov.pinned,
        verdict=verdict,
        assumptions=ev,
        tightness=tight,
        covering=cov,
        limit_form=fbar,
    )
