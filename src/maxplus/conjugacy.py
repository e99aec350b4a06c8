"""Moreau conjugacies on grids: kernels, transforms, subdifferentials.

A kernel couples an X-grid and a Y-grid through b(x, y), valued in
R ∪ {-inf} (+inf is rejected).  The conjugate of f is

    Bf(x) = max_y ( b(x, y) - f(y) )

with max-plus conventions, and the dual transform is conjugation with the
transposed kernel, so the b / b-transpose symmetry holds by construction.

Coercivity-style growth conditions are statements about behaviour at
infinity; a finite window can only sample them, so the reports here label
their findings EVIDENCE or VIOLATION, never proofs.  Window edges that
stand in for infinity are distinguished from genuine boundaries (as in a
half-line domain) through ``WindowSides``.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .grids import (
    NEG_INF,
    POS_INF,
    Grid,
    GridFn,
    ball_extreme,
    check_values,
    otimes,
    require_same_grid,
)

EVIDENCE = "EVIDENCE"
VIOLATION = "VIOLATION"
EDGE = "EDGE"  # stencil clipped by an open window side: not a faithful neighborhood


class Kernel:
    """Coupling b(x, y) between an X-grid and a Y-grid.

    Either the closed-form bilinear kernel b(x, y) = x·y or a dense table.
    Table entries live in R ∪ {-inf}; every row and every column must
    contain at least one finite entry.
    """

    def __init__(self, x_grid, y_grid, table=None):
        self.x_grid = x_grid
        self.y_grid = y_grid
        if table is None:
            self.kind = "bilinear"
            if x_grid.dim != y_grid.dim:
                raise ValidationError("bilinear kernel needs grids of equal dimension")
            self.table = None
        else:
            self.kind = "table"
            arr = check_values(table, "kernel table")
            if arr.shape != (x_grid.size, y_grid.size):
                raise ValidationError(
                    f"kernel table shape {arr.shape} != ({x_grid.size}, {y_grid.size})"
                )
            if np.isposinf(arr).any():
                raise ValidationError("kernel entries must lie in R ∪ {-inf}")
            finite = np.isfinite(arr)
            if not finite.any(axis=1).all():
                raise ValidationError("kernel has a row without finite entries")
            if not finite.any(axis=0).all():
                raise ValidationError("kernel has a column without finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            self.table = arr

    @classmethod
    def bilinear(cls, x_grid, y_grid):
        return cls(x_grid, y_grid)

    @classmethod
    def from_table(cls, x_grid, y_grid, table):
        return cls(x_grid, y_grid, table=table)

    def transpose(self):
        """The kernel of the dual conjugacy: b∨(y, x) = b(x, y)."""
        if self.kind == "bilinear":
            return Kernel.bilinear(self.y_grid, self.x_grid)
        return Kernel.from_table(self.y_grid, self.x_grid, self.table.T)

    def rows(self, idx):
        """b(x, ·) for the X-nodes ``idx`` (a slice or an index array).

        A table kernel returns its table's rows; a bilinear kernel builds
        the block with the expression of the bilinear actions, so every
        cell is the same float whichever block it is built in.
        """
        if self.kind == "table":
            return self.table[idx]
        xc = self.x_grid.coords[idx]
        yc = self.y_grid.coords
        if self.x_grid.dim == 1:
            return np.multiply.outer(xc, yc)
        return np.multiply.outer(xc[:, 0], yc[:, 0]) + np.multiply.outer(
            xc[:, 1], yc[:, 1]
        )

    def matrix(self):
        """Dense b(x, y) table (materialised for the bilinear form).

        The library walks kernels through ``rows`` in blocks; this whole
        matrix is for tests and small inspections.
        """
        m = self.rows(slice(None))
        m.setflags(write=False)
        return m

    def row(self, i):
        """b(x_i, ·) as a GridFn on the Y-grid."""
        return GridFn(self.y_grid, self.rows(slice(i, i + 1))[0])

    def __repr__(self):
        return f"Kernel({self.kind}, X={self.x_grid}, Y={self.y_grid})"


def conjugate(f, k):
    """Max-plus conjugate of f through the kernel: x ↦ max_y b(x,y) - f(y).

    The dual transform is ``conjugate(g, k.transpose())``.  Result is
    tagged plain.
    """
    require_same_grid(f, k.y_grid, "conjugate: f")
    neg_f = -f.flat
    if k.kind == "bilinear":
        if k.x_grid.dim == 1:
            out = _kernels.matvec_bilinear(k.x_grid.coords, k.y_grid.coords, neg_f)
        else:
            xc = k.x_grid.coords
            yc = k.y_grid.coords
            out = _kernels.matvec_bilinear_2d(
                np.ascontiguousarray(xc[:, 0]),
                np.ascontiguousarray(xc[:, 1]),
                np.ascontiguousarray(yc[:, 0]),
                np.ascontiguousarray(yc[:, 1]),
                neg_f,
            )
    else:
        out = _kernels.matvec_table(k.table, neg_f)
    return GridFn(k.x_grid, out.reshape(k.x_grid.shape))


def legendre_fast(f, x_grid):
    """Legendre-Fenchel transform of a 1-D grid function in O(|X| + |Y|).

    Bit-identical to ``conjugate(f, Kernel.bilinear(x_grid, f.grid))``:
    the lines y ↦ (slope y, intercept -f(y)) go through the upper-envelope
    merge, which evaluates its candidates with the dense path's float
    expression (see ``_kernels.envelope_merge``).  An f with a -inf node
    gives +inf everywhere, as the dense path does.  The one input on which
    the two paths differ is an f that is +inf everywhere: the dense path
    returns -inf everywhere, this one raises ``ValidationError``.
    """
    if f.grid.dim != 1 or x_grid.dim != 1:
        raise ValidationError("legendre_fast handles 1-D grids only")
    vals = f.flat
    if np.isneginf(vals).any():
        # some line has intercept +inf, so the transform is +inf everywhere
        return GridFn(x_grid, np.full(x_grid.shape, POS_INF))
    if not np.isfinite(vals).any():
        raise ValidationError("legendre_fast: f has no finite value")
    out = _kernels.envelope_merge(f.grid.coords, -vals, x_grid.coords)
    return GridFn(x_grid, out)


@dataclass(frozen=True)
class SubdiffMap:
    """Attainment structure of the dual conjugate.

    ``attain[i, j]`` is true when y_j belongs to the subdifferential of g
    at x_i, equivalently when the max defining the dual conjugate at y_j
    is attained at x_i with b(x_i, y_j) finite and g(x_i) < +inf.
    """

    x_grid: Grid
    y_grid: Grid
    attain: np.ndarray
    dual: GridFn  # the dual conjugate of g on the Y-grid

    def at(self, x_index):
        """Y-nodes in the subdifferential at one x-node."""
        return np.flatnonzero(self.attain[x_index])

    def preimage(self, y_index):
        """X-nodes whose subdifferential contains one y-node."""
        return np.flatnonzero(self.attain[:, y_index])


def subdifferential_map(g, k):
    """Both directions of the generalized subdifferential of g.

    y ∈ ∂g(x) iff b(x, y) is finite, g(x) < +inf, and x attains the max
    defining the dual conjugate at y.  Points with g(x) = +inf carry an
    empty subdifferential.
    """
    require_same_grid(g, k.x_grid, "subdifferential_map: g")
    gv = g.flat
    dual = conjugate(g, k.transpose())
    dv = dual.flat
    nx = k.x_grid.size
    attain = np.empty((nx, k.y_grid.size), dtype=bool)
    step = _kernels.block_rows(k.y_grid.size)
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        b = k.rows(slice(lo, hi))
        gb = gv[lo:hi, None]
        attain[lo:hi] = np.isfinite(b) & (gb < POS_INF) & (otimes(b, -gb) == dv)
    attain.setflags(write=False)
    return SubdiffMap(x_grid=k.x_grid, y_grid=k.y_grid, attain=attain, dual=dual)


@dataclass(frozen=True)
class WindowSides:
    """Which edges of a grid window stand in for infinity.

    ``closed_below`` / ``closed_above`` are per-axis flags; a closed side
    is a genuine boundary of the space (as the left end of a half-line
    domain), so sets may touch it without hurting compactness evidence.
    Open sides emulate infinity and carry the margin ring.
    """

    closed_below: tuple = ()
    closed_above: tuple = ()

    @classmethod
    def all_open(cls, dim):
        return cls((False,) * dim, (False,) * dim)

    @classmethod
    def half_line(cls):
        """1-D window [a, +inf): genuine lower edge, emulated upper edge."""
        return cls((True,), (False,))

    def normalized(self, dim):
        cb = self.closed_below or (False,) * dim
        ca = self.closed_above or (False,) * dim
        if len(cb) != dim or len(ca) != dim:
            raise ValidationError("WindowSides flags must match the grid dimension")
        return cb, ca


def inner_window_mask(grid, margin, sides=None):
    """Nodes at coordinate distance > margin*(hi-lo) from every open edge."""
    if not (0.0 < margin < 0.5):
        raise ValidationError("window margin must lie in (0, 1/2)")
    sides = sides or WindowSides.all_open(grid.dim)
    cb, ca = sides.normalized(grid.dim)
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        lo, hi = grid.lo[ax], grid.hi[ax]
        pad = margin * (hi - lo)
        c = grid.axis_coords(ax)
        ok = np.ones(c.shape, dtype=bool)
        if not cb[ax]:
            ok &= c >= lo + pad
        if not ca[ax]:
            ok &= c <= hi - pad
        shape = [1] * grid.dim
        shape[ax] = c.size
        mask &= ok.reshape(shape)
    return mask.reshape(-1)


def _row_blocks(grid, radius, ny):
    """Blocks of X-rows with the halo their stencil balls reach.

    Yields ``(lo, hi, h0, h1)``: flat rows lo:hi form one block of whole
    slices along the first axis (``_kernels.block_rows(ny)`` rows, at
    least one slice), and rows h0:h1 hold every Chebyshev ball of the
    given radius around them.
    """
    n0 = grid.n[0]
    step = grid.size // n0  # nodes per first-axis slice
    per = max(1, _kernels.block_rows(ny) // step)
    for a in range(0, n0, per):
        e = min(a + per, n0)
        yield a * step, e * step, max(0, a - radius) * step, min(n0, e + radius) * step


def _block_gain(halo, grid, radius, a, e):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) for the halo rows a:e.

    ``halo`` holds the kernel rows of whole first-axis slices; the max
    over the Chebyshev ball clipped to the grid runs along the X axes
    only, and the rows around a:e supply the neighbours outside it.
    """
    ny = halo.shape[1]
    sup = ball_extreme(
        halo.reshape((-1,) + grid.n[1:] + (ny,)), radius, np.maximum, range(grid.dim)
    )
    return otimes(sup.reshape(-1, ny)[a:e], -halo[a:e])


def _clipped_nodes(grid, radius, sides):
    """Nodes whose Chebyshev ball is clipped by an open window side.

    Single-node axes are whole spaces, never clipped.
    """
    cb, ca = (sides or WindowSides.all_open(grid.dim)).normalized(grid.dim)
    clipped = np.zeros(grid.shape, dtype=bool)
    for ax, n in enumerate(grid.n):
        if n == 1:
            continue
        i = np.arange(n)
        hit = ((i - radius < 0) & (not cb[ax])) | ((i + radius > n - 1) & (not ca[ax]))
        shape = [1] * grid.dim
        shape[ax] = n
        clipped |= hit.reshape(shape)
    return clipped.reshape(-1)


def _row_quantiles(values, keep, quantiles):
    """Quantiles of each row's kept values; (levels, use).

    ``levels[i, j]`` equals ``np.quantile(values[i][keep[i]],
    quantiles[j])`` (method ``linear``) bit for bit: the same order
    statistics and the same interpolation expression, after one row-wise
    sort.  ``use`` marks the rows that keep any value; the levels of the
    other rows are placeholders.
    """
    counts = keep.sum(axis=1)
    s = np.sort(np.where(keep, values, POS_INF), axis=1)
    rows = np.arange(s.shape[0])
    some = counts > 0
    last = np.maximum(counts - 1, 0)
    levels = np.empty((s.shape[0], len(quantiles)))
    for j, q in enumerate(quantiles):
        virt = (counts - 1) * q
        prev = np.floor(virt)
        top = virt >= counts - 1  # numpy takes the largest value there
        t = np.where(top, virt + 1, virt - prev)
        a = np.where(some, s[rows, np.where(top, last, prev).astype(np.intp)], 0.0)
        b = np.where(some, s[rows, np.where(top, last, prev + 1).astype(np.intp)], 0.0)
        diff = b - a
        lerp = a + diff * t
        upper = t >= 0.5
        lerp[upper] = (b - diff * (1 - t))[upper]
        levels[:, j] = lerp
    return levels, np.repeat(some[:, None], len(quantiles), axis=1)


@dataclass(frozen=True)
class CoercivityReport:
    """Per-x sublevel-set diagnostics for the neighborhood-gain function.

    ``coercive`` / ``upper_coercive`` hold one EVIDENCE/VIOLATION/EDGE
    label per x-node; EDGE marks nodes whose stencil ball is clipped by
    an open side of the X-window (the ball is then not a faithful
    neighborhood of the emulated space, so the node is not testable).
    The coercive labels are also the strongly-coercive ones, because a
    stencil ball on a grid is already a finite neighborhood.
    """

    coercive: list
    upper_coercive: list

    @property
    def all_coercive(self):
        tested = [v for v in self.coercive if v != EDGE]
        return bool(tested) and all(v == EVIDENCE for v in tested)

    @property
    def all_upper_coercive(self):
        tested = [v for v in self.upper_coercive if v != EDGE]
        return bool(tested) and all(v == EVIDENCE for v in tested)


def coercivity_report(
    k,
    window_margin,
    *,
    stencil_radius=1,
    sides=None,
    x_sides=None,
):
    """Sample coercivity of the kernel through stencil neighborhoods.

    For each x-node and V the stencil ball around it, the sublevel sets
    {y : max_{z in V} b(z,y) - b(x,y) <= beta} are tested for containment
    in the inner window (coercive evidence) and for the max of b(x, ·)
    over them being attained away from open edges (upper-coercive
    evidence).  The levels beta are the 0.5, 0.75 and 0.9 quantiles of
    the finite gain values inside the inner window.  ``sides`` declare
    which Y-window edges are genuine boundaries; ``x_sides`` the same for
    the X-window, whose open edges produce untestable (EDGE) nodes.

    The x-nodes are processed as array code over blocks of rows; the
    report is the one a per-node loop over these definitions returns.
    """
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    clipped = _clipped_nodes(k.x_grid, stencil_radius, x_sides)
    coercive = []
    upper = []
    for lo, hi, h0, h1 in _row_blocks(k.x_grid, stencil_radius, k.y_grid.size):
        halo = k.rows(slice(h0, h1))
        rows = halo[lo - h0 : hi - h0]
        gain = _block_gain(halo, k.x_grid, stencil_radius, lo - h0, hi - h0)
        levels, use = _row_quantiles(gain, inner & np.isfinite(gain), (0.5, 0.75, 0.9))
        # cap the levels just under the ring minimum: sublevel-set
        # geometry need not match the window shape, but any level below
        # every ring value fits whenever no valley escapes; levels at or
        # above escaping valleys still flag violations
        ring = ~inner & np.isfinite(gain)
        capped = ring.any(axis=1) & use.any(axis=1)
        if capped.any():
            lo_ring = np.where(ring[capped], gain[capped], POS_INF).min(axis=1)
            cap = lo_ring - np.maximum(1e-12, 0.05 * np.abs(lo_ring))
            raw = levels[capped]
            fit = np.sort(
                np.maximum(np.minimum(raw, cap[:, None]), raw.min(axis=1)[:, None]),
                axis=1,
            )
            levels[capped] = fit
            use[capped, 1:] = fit[:, 1:] != fit[:, :-1]  # each level once
        # no level at all leaves nothing finite to test against
        ok_c = use.any(axis=1)
        ok_u = np.ones(hi - lo, dtype=bool)
        for j in range(levels.shape[1]):
            sub = gain <= levels[:, j, None]
            ok_c &= ~use[:, j] | ~(sub & ~inner).any(axis=1)
            vals = np.where(sub, rows, NEG_INF)
            top = vals.max(axis=1)
            ok_u &= (
                ~use[:, j]
                | (top == NEG_INF)
                | (inner & (vals == top[:, None])).any(axis=1)
            )
        edge = clipped[lo:hi]
        coercive += np.where(edge, EDGE, np.where(ok_c, EVIDENCE, VIOLATION)).tolist()
        upper += np.where(edge, EDGE, np.where(ok_u, EVIDENCE, VIOLATION)).tolist()
    return CoercivityReport(coercive=coercive, upper_coercive=upper)


@dataclass(frozen=True)
class SuperlevelReport:
    """Per-x superlevel-set confinement evidence for b(x,·) - f."""

    verdicts: list

    @property
    def all_evidence(self):
        return all(v == EVIDENCE for v in self.verdicts)


def superlevel_compactness_report(
    f,
    k,
    window_margin,
    *,
    sides=None,
):
    """Evidence that superlevel sets {b(x,·) - f >= beta} stay confined.

    Empty superlevel sets count as evidence (there is nothing to escape);
    sets touching an open window edge are violations.  The levels beta
    are the 0.75 and 0.9 quantiles of the finite values inside the inner
    window; a row with none (b(x,·) - f is -inf there) has only empty
    superlevel sets.  Array code over blocks of x-rows.
    """
    require_same_grid(f, k.y_grid, "superlevel_compactness_report: f")
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    neg_f = -f.flat
    verdicts = []
    for lo, hi, _, _ in _row_blocks(k.x_grid, 0, k.y_grid.size):
        vals = otimes(k.rows(slice(lo, hi)), neg_f)
        levels, use = _row_quantiles(vals, inner & np.isfinite(vals), (0.75, 0.9))
        ok = np.ones(hi - lo, dtype=bool)
        for j in range(levels.shape[1]):
            sup = vals >= levels[:, j, None]
            ok &= ~use[:, j] | ~(sup & ~inner).any(axis=1)
        verdicts += np.where(ok, EVIDENCE, VIOLATION).tolist()
    return SuperlevelReport(verdicts=verdicts)
