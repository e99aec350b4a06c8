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

The window diagnostics walk the kernel in blocks of X-rows, in buffers
allocated once per call, and sort only the inner window's cells for their
level, one quantile per report.  Each level test is one reduction over
the ring, the Y-nodes outside the inner window: a level set leaves the
window iff the ring's extreme passes the level, and a sublevel set that
stays inside holds its row maximum inside, so the upper-coercivity test
runs only on the rows whose sets reach the ring (the arguments are in
``coercivity_report``).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ValidationError
from .grids import (
    NEG_INF,
    POS_INF,
    GridFn,
    ball_extreme,
    check_values,
    require_same_grid,
)

EVIDENCE = "EVIDENCE"
VIOLATION = "VIOLATION"
EDGE = "EDGE"  # stencil clipped by an open window side: not a faithful neighborhood


class Kernel:
    """Coupling b(x, y) between an X-grid and a Y-grid.

    Either the closed-form bilinear kernel b(x, y) = x·y or a dense table.
    Table entries live in R ∪ {-inf}; every row and every column must
    contain at least one finite entry.  A bilinear kernel's values must
    be finite floats: the sum over axes of max|x_a|·max|y_a| must not
    overflow, and it bounds every computed b(x, y).
    """

    def __init__(self, x_grid, y_grid, table=None):
        self.x_grid = x_grid
        self.y_grid = y_grid
        if table is None:
            self.kind = "bilinear"
            if x_grid.dim != y_grid.dim:
                raise ValidationError("bilinear kernel needs grids of equal dimension")
            xm, ym = (np.abs(g.coords).max(axis=0) for g in (x_grid, y_grid))
            with np.errstate(over="ignore"):
                bound = np.sum(xm * ym)
            if not np.isfinite(bound):
                raise ValidationError(
                    f"bilinear kernel on {x_grid} x {y_grid}: x·y leaves the float range"
                )
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

    def rows(self, idx, out=None):
        """b(x, ·) for the X-nodes ``idx`` (a slice or an index array).

        A table kernel returns its table's rows (a view for a slice); a
        bilinear kernel builds the block with the expression of the
        bilinear actions, so every cell is the same float whichever block
        it is built in.  ``out`` is a float buffer of at least that many
        rows: a bilinear block is written into its leading rows, so a walk
        over blocks allocates its block once.  A table kernel leaves it
        alone.
        """
        if self.kind == "table":
            return self.table[idx]
        xc = self.x_grid.coords[idx]
        yc = self.y_grid.coords
        if out is not None:
            out = out[: xc.shape[0]]
        if self.x_grid.dim == 1:
            return np.multiply.outer(xc, yc, out=out)
        out = np.multiply.outer(xc[:, 0], yc[:, 0], out=out)
        out += np.multiply.outer(xc[:, 1], yc[:, 1])
        return out

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

    The dual transform is ``conjugate(g, k.transpose())``.
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


def legendre_fast(f, k):
    """Legendre-Fenchel transform of a 1-D grid function in O(|X| + |Y|).

    ``k`` is a 1-D bilinear kernel and ``f`` lives on its Y-grid, as in
    ``conjugate(f, k)``, to which the result is bit-identical: the lines
    y ↦ (slope y, intercept -f(y)) go through the upper-envelope merge,
    which ``conjugate`` also takes above ``_kernels._ENVELOPE_ROWS``
    X-nodes and which evaluates its candidates with the dense sweep's
    float expression (see ``_kernels.envelope_merge``).  This function
    takes the merge at every size.  An f with a -inf node gives +inf
    everywhere and an f that is +inf everywhere gives -inf everywhere
    (every line has intercept -inf), as ``conjugate`` does.
    """
    if k.kind != "bilinear" or k.x_grid.dim != 1:
        raise ValidationError(f"legendre_fast needs a 1-D bilinear kernel, got {k!r}")
    require_same_grid(f, k.y_grid, "legendre_fast: f")
    vals = f.flat
    if np.isneginf(vals).any():
        # some line has intercept +inf, so the transform is +inf everywhere
        return GridFn(k.x_grid, np.full(k.x_grid.shape, POS_INF))
    out = _kernels.envelope_merge(k.y_grid.coords, -vals, k.x_grid.coords)
    return GridFn(k.x_grid, out)


@dataclass(frozen=True)
class SubdiffMap:
    """Attainment structure of the dual conjugate.

    ``attain[i, j]`` is true when y_j belongs to the subdifferential of g
    at x_i, equivalently when the max defining the dual conjugate at y_j
    is attained at x_i with b(x_i, y_j) finite and g(x_i) < +inf.
    """

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

    The test runs over blocks of X-rows as ``(b - g) == dual`` at the
    columns where the dual is above -inf.  That is the definition bit for
    bit: a - c is a + (-c) in IEEE arithmetic, so a finite b and g < +inf
    give the dual's own term b + (-g), finite or +inf; and a term equal to
    a dual above -inf is neither -inf (b = -inf or g = +inf) nor NaN
    (b = g = -inf), since kernels hold no +inf.
    """
    require_same_grid(g, k.x_grid, "subdifferential_map: g")
    gv = g.flat
    dual = conjugate(g, k.transpose())
    dv = dual.flat
    reached = dv > NEG_INF
    nx = k.x_grid.size
    attain = np.empty((nx, k.y_grid.size), dtype=bool)
    step = min(_kernels.block_rows(k.y_grid.size), nx)
    buf = np.empty((step, k.y_grid.size))  # one block, reused
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = buf[: hi - lo]
        with np.errstate(invalid="ignore"):
            np.subtract(k.rows(slice(lo, hi), out=buf), gv[lo:hi, None], out=t)
        np.equal(t, dv, out=attain[lo:hi])
        attain[lo:hi] &= reached
    attain.setflags(write=False)
    return SubdiffMap(attain=attain, dual=dual)


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


def _inner_box(grid, margin, sides=None):
    """The inner window as one index slice per axis.

    Coordinates are monotone along each axis, so the nodes each axis
    keeps form one index range, and the window is their box.
    """
    if not (0.0 < margin < 0.5):
        raise ValidationError("window margin must lie in (0, 1/2)")
    sides = sides or WindowSides.all_open(grid.dim)
    cb, ca = sides.normalized(grid.dim)
    box = []
    for ax in range(grid.dim):
        lo, hi = grid.lo[ax], grid.hi[ax]
        pad = margin * (hi - lo)
        c = grid.axis_coords(ax)
        ok = np.ones(c.shape, dtype=bool)
        if not cb[ax]:
            ok &= c >= lo + pad
        if not ca[ax]:
            ok &= c <= hi - pad
        idx = np.flatnonzero(ok)
        box.append(slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0))
    return tuple(box)


def inner_window_mask(grid, margin, sides=None):
    """Nodes at coordinate distance > margin*(hi-lo) from every open edge."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[_inner_box(grid, margin, sides)] = True
    return mask.reshape(-1)


def _window_split(vals, grid, box, op):
    """A block of Y-rows as its inner-box view and ``op`` over its ring.

    ``op`` (np.minimum or np.maximum) reduces each row's ring, the cells
    outside the box, cut into at most 2·dim slabs: along each axis, the
    cells below and above the box's range that lie in the box's ranges
    of the earlier axes.  An empty ring reduces to the identity of
    ``op``, +inf or -inf, which passes no finite level.
    """
    v = vals.reshape((-1,) + grid.shape)
    whole = (slice(None),)
    empty = POS_INF if op is np.minimum else NEG_INF
    ring = np.full(v.shape[0], empty)
    for ax, s in enumerate(box):
        for part in (slice(0, s.start), slice(s.stop, None)):
            slab = v[whole + box[:ax] + (part,)]
            r = op.reduce(slab, axis=tuple(range(1, slab.ndim)), initial=empty)
            op(ring, r, out=ring)
    return v[whole + box], ring


def _sorted_window(box_view, out):
    """Each row's inner-box cells, sorted, in the buffer ``out``."""
    np.copyto(out.reshape(box_view.shape), box_view)
    out.sort(axis=1)
    return out


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


def _block_gain(halo, grid, radius, a, e, out):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) for the halo rows a:e, into ``out``.

    ``halo`` holds the kernel rows of whole first-axis slices; the max
    over the Chebyshev ball clipped to the grid runs along the X axes
    only (within each slice first on a 2-D grid), and the rows around
    a:e supply the neighbours outside it.  ``sup - rows`` equals
    ``otimes(sup, -rows)`` bit for bit: a - c is a + (-c) in IEEE
    arithmetic, sup is never +inf (kernels hold none) and sup >= rows, so
    the one case otimes treats apart, sup = rows = -inf, is the NaN that
    is set to -inf.
    """
    rows = halo[a:e]
    src = halo
    if grid.dim > 1:
        ny = halo.shape[1]
        src = ball_extreme(
            halo.reshape((-1,) + grid.n[1:] + (ny,)), radius, np.maximum,
            range(1, grid.dim),
        ).reshape(-1, ny)
    np.copyto(out, src[a:e])
    step = grid.size // grid.n[0]  # nodes per first-axis slice
    for d in range(step, radius * step + 1, step):  # the slices d rows away
        n = min(e, src.shape[0] - d) - a  # rows with a neighbour d rows on
        if n > 0:
            np.maximum(out[:n], src[a + d : a + d + n], out=out[:n])
        i = max(a, d) - a  # first row with a neighbour d rows back
        if i < e - a:
            np.maximum(out[i:], src[a + i - d : e - d], out=out[i:])
    with np.errstate(invalid="ignore"):
        np.subtract(out, rows, out=out)
    return np.fmax(out, NEG_INF, out=out)  # NaN to -inf


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


def _row_quantile(s, q):
    """The q-quantile of the finite values of each row of ``s``; (level, use).

    Each row of ``s`` is sorted, so its infinities sit at its ends.
    ``level[i]`` is ``np.quantile`` of row i's finite values at ``q``
    (method ``linear``, type 7 of Hyndman & Fan 1996) bit for bit
    wherever that is finite: the same order statistics a <= b and the
    same interpolation expression.  Where b - a overflows, ``np.quantile``
    gives NaN or ±inf; the expression then runs on a/2 and b/2, exact at
    such magnitudes, and the result is doubled, so the level stays finite
    and between a and b.  ``use`` marks the rows with any finite value;
    the levels of the other rows are placeholders.
    """
    m, w = s.shape
    first = np.zeros(m, dtype=np.intp)  # position of the row's first finite value
    counts = np.full(m, w, dtype=np.intp)
    if w:
        low = np.flatnonzero(s[:, 0] == NEG_INF)
        n = np.count_nonzero(s[low] == NEG_INF, axis=1)
        first[low] = n
        counts[low] -= n
        high = np.flatnonzero(s[:, -1] == POS_INF)
        counts[high] -= np.count_nonzero(s[high] == POS_INF, axis=1)
    use = counts > 0
    rows = np.flatnonzero(use)
    c, f0 = counts[rows], first[rows]
    virt = (c - 1) * float(q)
    prev = np.floor(virt)
    top = virt >= c - 1  # numpy takes the largest value there
    t = np.where(top, virt + 1, virt - prev)
    a = s[rows, f0 + np.where(top, c - 1, prev).astype(np.intp)]
    b = s[rows, f0 + np.where(top, c - 1, prev + 1).astype(np.intp)]
    with np.errstate(over="ignore"):
        scale = np.where(np.isinf(b - a), 0.5, 1.0)
    a *= scale
    b *= scale
    diff = b - a
    lerp = a + diff * t
    upper = t >= 0.5
    lerp[upper] = (b - diff * (1 - t))[upper]
    level = np.zeros(m)
    level[rows] = lerp / scale
    return level, use


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

    For each x-node and V the stencil ball around it, the sublevel set
    {y : max_{z in V} b(z,y) - b(x,y) <= beta} is tested for containment
    in the inner window (coercive evidence) and for the max of b(x, ·)
    over it being attained away from open edges (upper-coercive
    evidence).  The level beta is the median of the finite gain values
    inside the inner window; a row with none has no level and is a
    coercive violation.  ``sides`` declare which Y-window edges are
    genuine boundaries; ``x_sides`` the same for the X-window, whose open
    edges produce untestable (EDGE) nodes.

    The x-nodes are processed as array code over blocks of rows, with
    the block buffers allocated once per call; the report is the one a
    per-node loop over these definitions returns.  Each test is one
    reduction over the ring (the Y-nodes outside the inner window):

    - the sublevel set at beta leaves the window iff the ring minimum of
      the gain is <= beta;
    - a sublevel set inside the window holds its max of b(x, ·) there
      (or is -inf throughout), so the upper test only runs on the rows
      whose set reaches the ring, where it holds iff the max of b(x, ·)
      over the set's inner part is >= the max over its ring part.

    One level gives the labels of the 0.5, 0.75 and 0.9 quantiles L1 <=
    L2 <= L3 capped just under the ring minimum m, as
    max(min(L, c), L1) with c = m - max(1e-12, 0.05|m|) < m (-inf for
    m = -inf), each distinct level tested once.  If L1 < c every capped
    level is below m and no set reaches the ring; otherwise every capped
    level is L1.  So a set reaches the ring iff m <= L1, and the upper
    test only ever acts at L1.  Finite gains are >= 0, so their quantiles
    are finite and ordered, and L1 is the median.
    """
    # a ball as wide as the longest X-axis already holds the whole grid
    stencil_radius = min(stencil_radius, max(k.x_grid.n))
    box = _inner_box(k.y_grid, window_margin, sides)
    clipped = _clipped_nodes(k.x_grid, stencil_radius, x_sides)
    ny = k.y_grid.size
    blocks = list(_row_blocks(k.x_grid, stencil_radius, ny))
    width = max(hi - lo for lo, hi, _, _ in blocks)
    halo_buf = None  # a table kernel's rows are views of its table
    if k.kind == "bilinear":
        halo_buf = np.empty((max(h1 - h0 for _, _, h0, h1 in blocks), ny))
    gain_buf = np.empty((width, ny))
    win_buf = np.empty((width, int(np.prod([s.stop - s.start for s in box]))))
    coercive = []
    upper = []
    for lo, hi, h0, h1 in blocks:
        halo = k.rows(slice(h0, h1), out=halo_buf)
        gain = _block_gain(
            halo, k.x_grid, stencil_radius, lo - h0, hi - h0, gain_buf[: hi - lo]
        )
        inner, ring_min = _window_split(gain, k.y_grid, box, np.minimum)
        level, use = _row_quantile(_sorted_window(inner, win_buf[: hi - lo]), 0.5)
        reach = use & (ring_min <= level)
        ok_c = use & ~reach
        ok_u = np.ones(hi - lo, dtype=bool)
        edge = clipped[lo:hi]
        tested = np.flatnonzero(reach & ~edge)
        if tested.size:
            # b(x, ·) on the sublevel set, -inf off it
            b_sub = np.where(
                gain[tested] <= level[tested, None], halo[lo - h0 + tested], NEG_INF
            )
            inner, ring_max = _window_split(b_sub, k.y_grid, box, np.maximum)
            top_in = inner.max(axis=tuple(range(1, inner.ndim)), initial=NEG_INF)
            ok_u[tested] = ring_max <= top_in
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
    sets touching an open window edge are violations.  The level beta is
    the 0.75 quantile of the finite values inside the inner window; a row
    with none (b(x,·) - f is -inf there) has only empty superlevel sets.
    The set at beta reaches the ring iff the ring maximum is >= beta.
    Testing the 0.9 quantile too would change no label: the quantiles are
    ordered, so a ring maximum at or above the 0.9 quantile is at or
    above the 0.75 quantile.  Array code over blocks of x-rows in buffers
    allocated once per call.  The values are ``b + (-f)`` with NaN set to
    -inf, which is ``otimes(b, -f)`` bit for bit (NaN comes only from -inf
    meeting +inf, where otimes gives -inf).
    """
    require_same_grid(f, k.y_grid, "superlevel_compactness_report: f")
    box = _inner_box(k.y_grid, window_margin, sides)
    neg_f = -f.flat
    blocks = list(_row_blocks(k.x_grid, 0, k.y_grid.size))
    width = max(hi - lo for lo, hi, _, _ in blocks)
    buf = np.empty((width, k.y_grid.size))  # a bilinear block is built in place
    win_buf = np.empty((width, int(np.prod([s.stop - s.start for s in box]))))
    verdicts = []
    for lo, hi, _, _ in blocks:
        vals = buf[: hi - lo]
        with np.errstate(invalid="ignore"):
            np.add(k.rows(slice(lo, hi), out=buf), neg_f, out=vals)
        np.fmax(vals, NEG_INF, out=vals)  # NaN to -inf
        inner, ring_max = _window_split(vals, k.y_grid, box, np.maximum)
        level, use = _row_quantile(_sorted_window(inner, win_buf[: hi - lo]), 0.75)
        verdicts += np.where(use & (ring_max >= level), VIOLATION, EVIDENCE).tolist()
    return SuperlevelReport(verdicts=verdicts)
