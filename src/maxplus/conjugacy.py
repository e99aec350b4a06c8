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
allocated once per call, one level per report: an order statistic of the
row's finite inner-window values (the lower q-quantile).  Each level test
compares the level with one reduction over the ring, the Y-nodes outside
the inner window: a level set leaves the window iff the ring's extreme
passes the level, and a sublevel set that stays inside holds its row
maximum inside, so the upper-coercivity test runs only on the rows whose
sets reach the ring (the arguments are in ``coercivity_report``).  A row's
comparison is decided by counting its inner cells that pass against the
ring value, which is the level's rank test (``_level_below``); a row is
sorted only where its level itself is needed.
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
# the share of each open side's span that goes to the ring standing in for infinity
WINDOW_MARGIN = 0.1


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

    The dual transform is ``conjugate(g, k.transpose())``.  A zero maximum
    reads +0, whatever the signs of the zeros it ties (see ``_kernels``).
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

    def preimage(self, y_index):
        """X-nodes whose subdifferential contains one y-node."""
        return np.flatnonzero(self.attain[:, y_index])


def subdifferential_map(g, k):
    """Both directions of the generalized subdifferential of g.

    y ∈ ∂g(x) iff b(x, y) is finite, g(x) < +inf, and x attains the max
    defining the dual conjugate at y.  Points with g(x) = +inf carry an
    empty subdifferential.

    The test is ``(b - g) == dual`` at the columns where the dual is above
    -inf.  That is the definition bit for bit: a - c is a + (-c) in IEEE
    arithmetic, so a finite b and g < +inf give the dual's own term
    b + (-g), finite or +inf; and a term equal to a dual above -inf is
    neither -inf (b = -inf or g = +inf) nor NaN (b = g = -inf), since
    kernels hold no +inf.

    Where the dual takes the envelope merge (a 1-D bilinear kernel whose
    Y-grid passes ``_kernels.takes_merge``, and no g = -inf node), the
    merge computes the dual and marks the attaining pairs among its
    candidates with the same test (``_kernels.envelope_merge``), which
    holds every pair that attains.  Otherwise the test runs over blocks of
    X-rows in one buffer.
    """
    require_same_grid(g, k.x_grid, "subdifferential_map: g")
    gv = g.flat
    nx, ny = k.x_grid.size, k.y_grid.size
    if (
        k.kind == "bilinear"
        and k.x_grid.dim == 1
        and not np.isneginf(gv).any()
        and _kernels.takes_merge(k.y_grid.coords, k.x_grid.coords)
    ):
        attain = np.zeros((nx, ny), dtype=bool)
        dv = _kernels.envelope_merge(k.x_grid.coords, -gv, k.y_grid.coords, attain)
        attain.setflags(write=False)
        return SubdiffMap(attain=attain, dual=GridFn(k.y_grid, dv))

    dual = conjugate(g, k.transpose())
    dv = dual.flat
    reached = dv > NEG_INF
    attain = np.empty((nx, ny), dtype=bool)
    step = min(_kernels.block_rows(ny), nx)
    buf = np.empty((step, ny))  # one block, reused
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = buf[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
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
    Open sides emulate infinity and give the ring a ``WINDOW_MARGIN``
    share of their span.
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


def _inner_box(grid, sides=None):
    """The inner window as one index slice per axis.

    Coordinates are monotone along each axis, so the nodes each axis
    keeps form one index range, and the window is their box.
    """
    sides = sides or WindowSides.all_open(grid.dim)
    cb, ca = sides.normalized(grid.dim)
    box = []
    for ax in range(grid.dim):
        lo, hi = grid.lo[ax], grid.hi[ax]
        pad = WINDOW_MARGIN * (hi - lo)
        c = grid.axis_coords(ax)
        ok = np.ones(c.shape, dtype=bool)
        if not cb[ax]:
            ok &= c >= lo + pad
        if not ca[ax]:
            ok &= c <= hi - pad
        idx = np.flatnonzero(ok)
        box.append(slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0))
    return tuple(box)


def inner_window_mask(grid, sides=None):
    """Nodes at coordinate distance >= WINDOW_MARGIN*(hi-lo) from every open edge."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[_inner_box(grid, sides)] = True
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


def _row_blocks(grid, ny):
    """Blocks of X-rows with the halo their stencil balls reach.

    Yields ``(lo, hi, h0, h1)``: flat rows lo:hi form one block of whole
    slices along the first axis (``_kernels.block_rows(ny)`` rows, at
    least one slice), and rows h0:h1 add the slice on either side, which
    holds every radius-1 Chebyshev ball around them.
    """
    n0 = grid.n[0]
    step = grid.size // n0  # nodes per first-axis slice
    per = max(1, _kernels.block_rows(ny) // step)
    for a in range(0, n0, per):
        e = min(a + per, n0)
        yield a * step, e * step, max(0, a - 1) * step, min(n0, e + 1) * step


def _block_gain(halo, grid, a, e, out):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) for the halo rows a:e, into ``out``.

    ``halo`` holds the kernel rows of whole first-axis slices; the max
    over the radius-1 Chebyshev ball clipped to the grid runs along the X
    axes only (within each slice first on a 2-D grid), and the slices on
    either side of a:e supply the neighbours outside it.  ``sup - rows``
    equals ``otimes(sup, -rows)`` bit for bit: a - c is a + (-c) in IEEE
    arithmetic, sup is never +inf (kernels hold none) and sup >= rows, so
    the one case otimes treats apart, sup = rows = -inf, is the NaN that
    is set to -inf.
    """
    rows = halo[a:e]
    src = halo
    if grid.dim > 1:
        ny = halo.shape[1]
        src = ball_extreme(
            halo.reshape((-1,) + grid.n[1:] + (ny,)), np.maximum, range(1, grid.dim),
        ).reshape(-1, ny)
    np.copyto(out, src[a:e])
    d = grid.size // grid.n[0]  # nodes per first-axis slice
    n = min(e, src.shape[0] - d) - a  # rows with a neighbour d rows on
    if n > 0:
        np.maximum(out[:n], src[a + d : a + d + n], out=out[:n])
    i = max(a, d) - a  # first row with a neighbour d rows back
    if i < e - a:
        np.maximum(out[i:], src[a + i - d : e - d], out=out[i:])
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(out, rows, out=out)
    return np.fmax(out, NEG_INF, out=out)  # NaN to -inf


def _clipped_nodes(grid, sides):
    """Nodes whose radius-1 Chebyshev ball is clipped by an open window side:
    the first or last node of an axis whose side there is open.

    Single-node axes are whole spaces, never clipped.
    """
    cb, ca = (sides or WindowSides.all_open(grid.dim)).normalized(grid.dim)
    clipped = np.zeros(grid.shape, dtype=bool)
    for ax, n in enumerate(grid.n):
        if n > 1:
            edges = np.moveaxis(clipped, ax, 0)  # a view
            edges[0] |= not cb[ax]
            edges[-1] |= not ca[ax]
    return clipped.reshape(-1)


def _rank(c, q):
    """Position floor((c - 1)·q) of the lower q-quantile among c sorted values."""
    return np.floor((c - 1) * float(q)).astype(np.intp)


def _row_quantile(s, q):
    """The lower q-quantile of the finite values of each row of ``s``; (level, use).

    Each row of ``s`` is sorted, so its infinities sit at its ends, and
    ``level[i]`` is the value at position ``_rank`` among row i's finite
    values: ``np.quantile(..., method="lower")``, an order statistic of
    the row.  ``use`` marks the rows with any finite value; the levels of
    the other rows are placeholders.
    """
    first = (s == NEG_INF).sum(axis=1)  # position of the row's first finite value
    counts = np.isfinite(s).sum(axis=1)
    use = counts > 0
    rows = np.flatnonzero(use)
    level = np.zeros(s.shape[0])
    level[rows] = s[rows, first[rows] + _rank(counts[rows], q)]
    return level, use


def _level_below(inner, ring, q, op, buf):
    """``op(level, ring)`` per row, decided by a rank count; (below, use).

    ``inner`` holds each row's inner-window cells, ``level`` is the lower
    q-quantile of a row's finite ones (``_row_quantile`` of the sorted
    row), ``op`` is np.less or np.less_equal and ``buf`` a bool buffer of
    at least the block's shape.  ``use`` marks the rows with any finite
    value; ``below`` is false on the others.

    With s a row's c finite values sorted, the level is s[p] for
    p = ``_rank(c, q)``.  The values v with op(v, ring) form a prefix of
    s, so the level passes iff more than p finite values pass: one count
    per row decides it, and no row is sorted.
    """
    m = inner.shape[0]
    axes = tuple(range(1, inner.ndim))
    col = (slice(None),) + (None,) * len(axes)
    flags = buf[:m].reshape(inner.shape)
    # a uint32 sum counts flags about twice as fast as np.count_nonzero
    n = op(inner, ring[col], out=flags).sum(axis=axes, dtype=np.uint32)
    c = np.full(m, int(np.prod(inner.shape[1:])), dtype=np.intp)
    # infinities are counted only in a block that holds them
    for inf, extreme in ((NEG_INF, np.min), (POS_INF, np.max)):
        if (extreme(inner, axis=axes, initial=-inf) == inf).any():
            k = np.equal(inner, inf, out=flags).sum(axis=axes, dtype=np.uint32)
            c -= k
            n -= k * op(inf, ring)
    use = c > 0
    return use & (n > _rank(c, q)), use


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


def coercivity_report(k, *, sides=None, x_sides=None):
    """Sample coercivity of the kernel through stencil neighborhoods.

    For each x-node and V the radius-1 Chebyshev ball around it (the
    grid samples a continuum), the sublevel set
    {y : max_{z in V} b(z,y) - b(x,y) <= beta} is tested for containment
    in the inner window (coercive evidence) and for the max of b(x, ·)
    over it being attained away from open edges (upper-coercive
    evidence).  The level beta is the lower median of the finite gain
    values inside the inner window; a row with none has no level and is a
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

    Whether the ring minimum is <= beta is decided by counting the finite
    inner gains below it (``_level_below``), so no row is sorted for the
    first test; beta itself is read from the sorted inner gains only on
    the rows the upper test runs on.
    """
    box = _inner_box(k.y_grid, sides)
    clipped = _clipped_nodes(k.x_grid, x_sides)
    ny = k.y_grid.size
    blocks = list(_row_blocks(k.x_grid, ny))
    width = max(hi - lo for lo, hi, _, _ in blocks)
    halo_buf = None  # a table kernel's rows are views of its table
    if k.kind == "bilinear":
        halo_buf = np.empty((max(h1 - h0 for _, _, h0, h1 in blocks), ny))
    gain_buf = np.empty((width, ny))
    inner_size = int(np.prod([s.stop - s.start for s in box]))
    side_buf = np.empty((width, inner_size), dtype=bool)
    sort_buf = None
    coercive = []
    upper = []
    for lo, hi, h0, h1 in blocks:
        halo = k.rows(slice(h0, h1), out=halo_buf)
        gain = _block_gain(halo, k.x_grid, lo - h0, hi - h0, gain_buf[: hi - lo])
        inner, ring_min = _window_split(gain, k.y_grid, box, np.minimum)
        below, use = _level_below(inner, ring_min, 0.5, np.less, side_buf)
        reach = use & ~below  # the ring minimum is <= the level
        ok_c = below
        ok_u = np.ones(hi - lo, dtype=bool)
        edge = clipped[lo:hi]
        tested = np.flatnonzero(reach & ~edge)
        if tested.size:
            if sort_buf is None:  # at the first tested rows: most calls have none
                sort_buf = np.empty((width, inner_size))
            cells = sort_buf[: tested.size]
            shape = (tested.size,) + inner.shape[1:]
            np.take(inner, tested, axis=0, out=cells.reshape(shape), mode="clip")
            cells.sort(axis=1)
            level = _row_quantile(cells, 0.5)[0]
            # b(x, ·) on the sublevel set, -inf off it
            b_sub = np.where(
                gain[tested] <= level[:, None], halo[lo - h0 + tested], NEG_INF
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


def superlevel_compactness_report(f, k, *, sides=None):
    """Evidence that superlevel sets {b(x,·) - f >= beta} stay confined.

    Empty superlevel sets count as evidence (there is nothing to escape);
    sets touching an open window edge are violations.  The level beta is
    the lower 0.75 quantile of the finite values inside the inner window;
    a row with none (b(x,·) - f is -inf there) has only empty superlevel
    sets.  The set at beta reaches the ring iff the ring maximum is
    >= beta, which counting the finite inner values at or below the ring
    maximum decides on every row (``_level_below``).  Testing the 0.9
    quantile too would change no label: the quantiles are ordered, so a
    ring maximum at or above the 0.9 quantile is at or above the 0.75
    quantile.  Array code over blocks of x-rows in buffers
    allocated once per call.  The values are ``b + (-f)`` with NaN set to
    -inf, which is ``otimes(b, -f)`` bit for bit (NaN comes only from -inf
    meeting +inf, where otimes gives -inf).
    """
    require_same_grid(f, k.y_grid, "superlevel_compactness_report: f")
    box = _inner_box(k.y_grid, sides)
    neg_f = -f.flat
    blocks = list(_row_blocks(k.x_grid, k.y_grid.size))
    width = max(hi - lo for lo, hi, _, _ in blocks)
    buf = np.empty((width, k.y_grid.size))  # a bilinear block is built in place
    inner_size = int(np.prod([s.stop - s.start for s in box]))
    side_buf = np.empty((width, inner_size), dtype=bool)
    verdicts = []
    for lo, hi, _, _ in blocks:
        vals = buf[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(k.rows(slice(lo, hi), out=buf), neg_f, out=vals)
        np.fmax(vals, NEG_INF, out=vals)  # NaN to -inf
        inner, ring_max = _window_split(vals, k.y_grid, box, np.maximum)
        below, _ = _level_below(inner, ring_max, 0.75, np.less_equal, side_buf)
        verdicts += np.where(below, VIOLATION, EVIDENCE).tolist()
    return SuperlevelReport(verdicts=verdicts)
