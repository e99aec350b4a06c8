"""Existence and uniqueness of conjugacy pre-images via coverings.

Given g on the X-grid and a kernel, the candidate pre-image is the dual
conjugate of g.  The target nodes (a caller-chosen X' intersected with
{g > -inf}) must be covered by the inverse-subdifferential pieces for a
pre-image to exist; essential pieces and their interior decide
uniqueness and pin the values every solution must take.

Pre-image functions range over R ∪ {+inf} per node: densities are
bounded below, so a dual-conjugate value of -inf marks a node supported
only by infinite g and is lifted out of the candidate's effective domain
(set to +inf) before certification.

The essential pieces need no per-node loop.  A target node's covering
pieces lie in the radius-1 ball around y iff y lies in the box
[max - 1, min + 1] of their coordinates on every axis; flat order runs
along the first axis slowest, so each row's first and last attaining
piece (two ``argmax`` calls) give that axis's extent, and the second
axis of a 2-D grid takes one reduction of the attainment rows.  A
difference array then marks all the boxes at once, and a node whose
first and last pieces coincide is covered by one piece, which is then
algebraically essential.
"""

from dataclasses import dataclass, field

import numpy as np

from .conjugacy import (
    EVIDENCE,
    VIOLATION,
    coercivity_report,
    conjugate,
    subdifferential_map,
    superlevel_compactness_report,
)
from .grids import (
    POS_INF,
    GridFn,
    domain_masks,
    node_mask,
    stencil_max,
    stencil_min,
)


@dataclass(frozen=True)
class CoveringReport:
    """Covering of the target by inverse-subdifferential pieces.

    ``piece_index`` lists the y-nodes indexing pieces (the finite-sublevel
    part of the dual conjugate); ``pinned`` is where every solution must
    agree with the dual conjugate: the algebraically essential nodes plus
    the interior of the topologically essential ones, interior taken
    relative to the dual conjugate's domain with the same stencil.
    """

    target: np.ndarray
    piece_index: np.ndarray
    covered: bool
    uncovered_nodes: np.ndarray
    alg_essential: np.ndarray
    top_essential: np.ndarray
    pinned: np.ndarray
    minimal_alg: bool
    minimal_top: bool
    subdiff: object = field(repr=False)
    masks: object = field(repr=False)  # domain_masks(g)

    def piece(self, y_index):
        return self.subdiff.preimage(y_index)


def build_covering(g, k, xprime=None, *, discrete=False, _masks=None):
    """Assemble the covering report for the target X' ∩ {g > -inf}.

    A piece index y is algebraically essential when removing that single
    piece uncovers a target node, and topologically essential when
    removing every piece in a neighbourhood of y does.  A ``discrete``
    Y-grid is a finite discrete space, whose neighbourhoods are the nodes
    themselves: there the topologically essential pieces are the
    algebraic ones, and each is interior.  Otherwise the grid samples a
    continuum and the neighbourhoods are radius-1 Chebyshev balls.
    ``_masks`` is ``domain_masks(g)`` when the caller has already built
    it.
    """
    sd = subdifferential_map(g, k)
    dual = sd.dual.flat
    piece_mask = dual < POS_INF
    piece_index = np.flatnonzero(piece_mask)

    masks = _masks if _masks is not None else domain_masks(g)
    target = node_mask(k.x_grid, xprime) & masks.udom.reshape(-1)

    # target coverage only through pieces; each row's first and last
    # attaining piece decide whether it is covered, and by one piece
    active = sd.attain if piece_mask.all() else sd.attain[:, piece_mask]
    nx, ny = active.shape[0], k.y_grid.size
    first = last = np.zeros(nx, dtype=np.intp)
    hit = np.zeros(nx, dtype=bool)
    if piece_index.size:
        first = active.argmax(axis=1)
        last = piece_index.size - 1 - active[:, ::-1].argmax(axis=1)
        hit = active[np.arange(nx), first]
    uncovered = target & ~hit
    covered = not uncovered.any()

    alg = np.zeros(ny, dtype=bool)
    rows = target & hit
    alg[piece_index[first[rows & (first == last)]]] = True

    if discrete:
        top = interior = alg
    else:
        # y is topologically essential iff some target node's covering
        # pieces all lie in the radius-1 ball around y, that is iff y lies
        # in the box [max - 1, min + 1] of their coordinates on every axis
        n = k.y_grid.n
        stride = ny // n[0]  # flat order runs along the first axis slowest
        lo = [piece_index[first[rows]] // stride]
        hi = [piece_index[last[rows]] // stride]
        if k.y_grid.dim == 2:
            # the second axis's extent of each row's pieces
            seen = np.logical_or.reduce(
                sd.attain.reshape(nx, n[0], n[1]), axis=1,
                where=piece_mask.reshape(1, n[0], n[1]),
            )[rows]
            lo.append(seen.argmax(axis=1))
            hi.append(n[1] - 1 - seen[:, ::-1].argmax(axis=1))
        lo, hi = np.array(lo).T, np.array(hi).T
        tight = (hi - lo <= 2).all(axis=1)
        top = _union_of_boxes(n, np.maximum(hi - 1, 0)[tight], np.minimum(lo + 2, n)[tight])
        top &= piece_mask
        # interior of top: no node of the dual's domain outside top lies in
        # the ball around y
        escape = (np.isfinite(dual) & ~top).reshape(k.y_grid.shape)
        interior = top & ~stencil_max(escape).reshape(-1)
    pinned = alg | interior

    return CoveringReport(
        target=target,
        piece_index=piece_index,
        covered=covered,
        uncovered_nodes=np.flatnonzero(uncovered),
        alg_essential=np.flatnonzero(alg),
        top_essential=np.flatnonzero(top),
        pinned=np.flatnonzero(pinned),
        minimal_alg=bool(alg[piece_index].all()) if piece_index.size else True,
        minimal_top=bool(top[piece_index].all()) if piece_index.size else True,
        subdiff=sd,
        masks=masks,
    )


def _union_of_boxes(shape, start, stop):
    """Flat mask of the union of the index boxes start[i] <= idx < stop[i].

    One row of per-axis bounds per box, each box non-empty; a difference
    array marks them all at once: +-1 at the 2**dim corners of each box,
    then a running sum along every axis.
    """
    diff = np.zeros(tuple(m + 1 for m in shape), dtype=np.intp)
    for corner in np.ndindex(*(2,) * len(shape)):
        at = tuple(
            (stop if c else start)[:, ax] for ax, c in enumerate(corner)
        )
        np.add.at(diff, at, (-1) ** sum(corner))
    for ax in range(len(shape)):
        np.cumsum(diff, axis=ax, out=diff)
    return (diff[tuple(slice(m) for m in shape)] > 0).reshape(-1)


def quasicontinuity_check(f, tol=0.0):
    """Does the l.s.c. hull of the u.s.c. hull reproduce f on its domain?

    Both hulls take the radius-1 Chebyshev ball, as on a grid that
    samples a continuum (on a discrete grid every function is
    continuous).  Returns (ok, witness) where witness is the first
    violating flat node index, or None.  The closing never falls below
    f, so the check is whether its excess stays within ``tol``: a strict
    local minimum of a sampled-smooth function carries an excess of about
    half its second difference, while a genuine spike carries the whole
    jump, so a one-grid-step tolerance separates the two regimes.  An f
    with no finite value has an empty domain and is vacuously
    quasi-continuous.
    """
    dom = np.isfinite(f.values).reshape(-1)
    closing = stencil_min(stencil_max(f.values))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = closing.reshape(-1) - f.flat
        gap[np.isnan(gap)] = 0.0  # matching infinities
    bad = dom & (gap > tol)
    if bad.any():
        return False, int(np.flatnonzero(bad)[0])
    return True, None


def lifted_candidate(dual):
    """The candidate pre-image: the dual conjugate with -inf lifted to +inf.

    Densities are bounded below; -inf dual values mark nodes outside the
    candidate's effective domain.
    """
    vals = np.array(dual.values)
    vals[np.isneginf(vals)] = POS_INF
    return GridFn(dual.grid, vals)


@dataclass(frozen=True)
class PreimageReport:
    """Residuals of the candidate pre-image f = dual conjugate of g.

    ``le_margin`` is the largest (finite) amount by which B f exceeds g;
    ``eq_residual`` the largest finite |B f - g| over X'.  Equality at
    infinite values requires matching signs.  ``passed`` certifies
    existence constructively.
    """

    candidate: GridFn
    transformed: GridFn
    le_margin: float
    eq_residual: float
    passed: bool
    le_violations: np.ndarray
    eq_violations: np.ndarray
    degenerate_rows: np.ndarray


def solve_preimage(g, k, xprime=None, *, _candidate=None):
    """Certify existence through the canonical candidate pre-image.

    The test is exact: B f <= g everywhere and B f = g on X', compared
    as extended reals (+inf <= +inf, -inf = -inf).  FAIL is a result, not
    an error: when the candidate fails, no function bounded below solves
    the problem.  ``_candidate`` is the lifted dual conjugate of g when
    the caller has already built it.
    """
    cand = _candidate
    if cand is None:
        cand = lifted_candidate(conjugate(g, k.transpose()))
    bf = conjugate(cand, k)

    gv = g.flat
    bv = bf.flat
    both_fin = np.isfinite(gv) & np.isfinite(bv)
    xmask = node_mask(k.x_grid, xprime)
    le_bad = bv > gv
    eq_bad = xmask & (bv != gv)
    eq_fin = xmask & both_fin
    with np.errstate(over="ignore"):  # a residual beyond the float range reads +inf
        le_margin = float((bv[both_fin] - gv[both_fin]).max()) if both_fin.any() else 0.0
        eq_residual = float(np.abs(bv[eq_fin] - gv[eq_fin]).max()) if eq_fin.any() else 0.0
    passed = not (le_bad.any() or eq_bad.any())

    # rows where g = -inf: B f must collapse to -inf there, which needs the
    # whole kernel row to degenerate wherever the candidate is finite
    degenerate = np.flatnonzero(np.isneginf(gv))
    return PreimageReport(
        candidate=cand,
        transformed=bf,
        le_margin=le_margin,
        eq_residual=eq_residual,
        passed=passed,
        le_violations=np.flatnonzero(le_bad),
        eq_violations=np.flatnonzero(eq_bad),
        degenerate_rows=degenerate,
    )


YES = "YES"
NO = "NO"
YES_IF_ASSUMPTIONS = "YES_IF_ASSUMPTIONS"
UNIQUE = "UNIQUE"
NOT_UNIQUE = "NOT_UNIQUE"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class AssumptionEvidence:
    """Window evidence for the standing assumptions of both verdicts.

    EVIDENCE/VIOLATION labels for the kernel's coercivity and upper
    coercivity and for compact superlevel sets of the candidate's dual,
    and whether the candidate survives its closing (quasi-continuity).
    """

    coercive: str
    upper_coercive: str
    dual_superlevel_compact: str
    quasicontinuous_dual: bool


def assumption_evidence(co, cand, k, *, sides, closing_tol):
    """The labels of the kernel's coercivity report ``co`` and the candidate.

    The candidate's superlevel sets are sampled on the Y-window that
    ``sides`` gives, and its radius-1 closing must stay within
    ``closing_tol`` (see ``quasicontinuity_check``).
    """
    fc = superlevel_compactness_report(cand, k, sides=sides)
    qc_ok, _ = quasicontinuity_check(cand, closing_tol)
    return AssumptionEvidence(
        coercive=EVIDENCE if co.all_coercive else VIOLATION,
        upper_coercive=EVIDENCE if co.all_upper_coercive else VIOLATION,
        dual_superlevel_compact=EVIDENCE if fc.all_evidence else VIOLATION,
        quasicontinuous_dual=qc_ok,
    )


@dataclass(frozen=True)
class Verdict:
    existence: str
    uniqueness: str
    assumptions: AssumptionEvidence
    covering: CoveringReport
    certificate: PreimageReport


def verdict(g, k, xprime=None, *, discrete=False, sides=None):
    """Existence/uniqueness verdict for the pre-image problem on a grid.

    Existence: YES when the covering holds or the candidate certifies;
    NO when neither and the standing assumptions have evidence; UNKNOWN
    otherwise.  The assumptions hold when the dual superlevel sets are
    compact or the kernel is coercive with X' inside the locally bounded
    nodes.  Uniqueness requires a covering plus quasi-continuity of the
    dual conjugate: UNIQUE iff also topologically minimal.  A
    ``discrete`` grid is a finite discrete space, compact, where every
    neighbourhood is the node itself: the assumptions hold outright,
    every function is continuous, and the topological pieces are the
    algebraic ones.  Otherwise the grids sample a continuum, every
    stencil has radius 1, and the assumptions are sampled on the
    Y-window whose edge roles ``sides`` gives (see ``WindowSides``).
    """
    rep = build_covering(g, k, xprime, discrete=discrete)
    cand = lifted_candidate(rep.subdiff.dual)
    pre = solve_preimage(g, k, xprime, _candidate=cand)
    if discrete:
        # granted, not sampled
        ev = AssumptionEvidence(
            coercive=EVIDENCE,
            upper_coercive=EVIDENCE,
            dual_superlevel_compact=EVIDENCE,
            quasicontinuous_dual=True,
        )
    else:
        ev = assumption_evidence(
            coercivity_report(k, sides=sides),
            cand, k, sides=sides, closing_tol=0.0,
        )

    xmask = node_mask(k.x_grid, xprime)
    inside = bool(
        (xmask <= (rep.masks.idom.reshape(-1) | np.isneginf(g.flat))).all()
    )
    holds = ev.dual_superlevel_compact == EVIDENCE or (ev.coercive == EVIDENCE and inside)

    if rep.covered or pre.passed:
        existence = YES
    elif holds:
        existence = NO
    else:
        existence = UNKNOWN

    if existence == YES and rep.covered and ev.quasicontinuous_dual and holds:
        uniqueness = UNIQUE if rep.minimal_top else NOT_UNIQUE
    else:
        uniqueness = UNKNOWN

    return Verdict(
        existence=existence,
        uniqueness=uniqueness,
        assumptions=ev,
        covering=rep,
        certificate=pre,
    )
