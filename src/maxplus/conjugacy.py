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

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import _kernels
from .errors import ValidationError
from .grids import (
    NEG_INF,
    POS_INF,
    Grid,
    GridFn,
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

    def __init__(self, x_grid, y_grid, table=None, kind=None):
        self.x_grid = x_grid
        self.y_grid = y_grid
        if table is None:
            self.kind = kind or "bilinear"
            if self.kind != "bilinear":
                raise ValidationError("only the bilinear closed form is registered")
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

    def matrix(self):
        """Dense b(x, y) table (materialised for the bilinear form)."""
        if self.kind == "table":
            return self.table
        xc = self.x_grid.coords
        yc = self.y_grid.coords
        if self.x_grid.dim == 1:
            m = np.multiply.outer(xc, yc)
        else:
            m = np.multiply.outer(xc[:, 0], yc[:, 0]) + np.multiply.outer(
                xc[:, 1], yc[:, 1]
            )
        m.setflags(write=False)
        return m

    def row(self, i):
        """b(x_i, ·) as a GridFn on the Y-grid."""
        return GridFn(self.y_grid, np.array(self.matrix()[i]))

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
    an upper-envelope pass over the lines y ↦ (slope y, intercept -f(y))
    followed by a monotone merge against the sorted x nodes, evaluating
    each candidate line with the same float expression the dense path
    uses.
    """
    if f.grid.dim != 1 or x_grid.dim != 1:
        raise ValidationError("legendre_fast handles 1-D grids only")
    vals = f.flat
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValidationError("legendre_fast: f has no finite value")
    xs = x_grid.coords
    if np.isneginf(vals).any():
        # some line has intercept +inf, so the transform is +inf everywhere
        return GridFn(x_grid, np.full(x_grid.shape, POS_INF))
    slopes = f.grid.coords[finite]
    icepts = -vals[finite]
    out = _kernels.envelope_merge(
        np.ascontiguousarray(slopes), np.ascontiguousarray(icepts), xs
    )
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
    b = k.matrix()
    gv = g.flat
    dual = conjugate(g, k.transpose())
    terms = otimes(b, -gv[:, None])
    attain = np.isfinite(b) & (gv[:, None] < POS_INF) & (terms == dual.flat[None, :])
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


def _row_blocks(grid, radius):
    """Blocks of X-rows with the halo their stencil balls reach.

    Yields ``(lo, hi, h0, h1)``: flat rows lo:hi form one block of whole
    slices along the first axis (about ``_CHUNK_ROWS`` rows), and rows
    h0:h1 hold every Chebyshev ball of the given radius around them.
    """
    n0 = grid.n[0]
    step = grid.size // n0  # nodes per first-axis slice
    per = max(1, _kernels._CHUNK_ROWS // step)
    for a in range(0, n0, per):
        e = min(a + per, n0)
        yield a * step, e * step, max(0, a - radius) * step, min(n0, e + radius) * step


def _block_gain(b, grid, radius, lo, hi, h0, h1):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) for the x-rows lo:hi.

    A maximum filter along the X axes in mode ``nearest`` takes the max
    over the Chebyshev ball clipped to the grid; the halo rows h0:h1
    supply the neighbours outside the block.
    """
    halo = b[h0:h1].reshape((-1,) + grid.n[1:] + (b.shape[1],))
    sup = ndimage.maximum_filter(
        halo, size=(2 * radius + 1,) * grid.dim + (1,), mode="nearest"
    )
    return otimes(sup.reshape(h1 - h0, -1)[lo - h0 : hi - h0], -b[lo:hi])


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


def _given_levels(betas, rows):
    """The same explicit levels for every row, all of them in use."""
    levels = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows, len(betas)))
    return levels, np.ones(levels.shape, dtype=bool)


def _level_checks(levels, use, sizes, contained, bounded=None):
    """Per-row lists of LevelSetCheck for the levels in use."""
    if bounded is None:
        bounded = np.ones(levels.shape, dtype=bool)
    return [
        [
            LevelSetCheck(beta=beta, set_size=n, contained=c, bounded_above=u)
            for beta, in_use, n, c, u in zip(*row)
            if in_use
        ]
        for row in zip(
            levels.tolist(), use.tolist(), sizes.tolist(), contained.tolist(),
            bounded.tolist(),
        )
    ]


@dataclass(frozen=True)
class LevelSetCheck:
    beta: float
    set_size: int
    contained: bool
    bounded_above: bool = True


@dataclass(frozen=True)
class CoercivityReport:
    """Per-x sublevel-set diagnostics for the neighborhood-gain function.

    ``coercive`` / ``upper_coercive`` hold one EVIDENCE/VIOLATION/EDGE
    label per x-node; EDGE marks nodes whose stencil ball is clipped by
    an open side of the X-window (the ball is then not a faithful
    neighborhood of the emulated space, so the node is not testable).
    The strongly-coercive labels coincide with the coercive ones because
    a stencil ball on a grid is already a finite neighborhood
    (``finite_neighborhoods`` records this).
    """

    margin: float
    coercive: list
    upper_coercive: list
    checks: list = field(repr=False)
    finite_neighborhoods: bool = True

    @property
    def strongly_coercive(self):
        return self.coercive

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
    betas=None,
    beta_quantiles=(0.5, 0.75, 0.9),
    sides=None,
    x_sides=None,
):
    """Sample coercivity of the kernel through stencil neighborhoods.

    For each x-node and V the stencil ball around it, the sublevel sets
    {y : max_{z in V} b(z,y) - b(x,y) <= beta} are tested for containment
    in the inner window (coercive evidence) and for the max of b(x, ·)
    over them being attained away from open edges (upper-coercive
    evidence).  Betas default to quantiles of the finite gain values
    inside the inner window.  ``sides`` declare which Y-window edges are
    genuine boundaries; ``x_sides`` the same for the X-window, whose open
    edges produce untestable (EDGE) nodes.

    The x-nodes are processed as array code over blocks of rows; the
    report is the one a per-node loop over these definitions returns.
    """
    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    clipped = _clipped_nodes(k.x_grid, stencil_radius, x_sides)
    coercive = []
    upper = []
    checks = []
    for lo, hi, h0, h1 in _row_blocks(k.x_grid, stencil_radius):
        gain = _block_gain(b, k.x_grid, stencil_radius, lo, hi, h0, h1)
        if betas is not None:
            levels, use = _given_levels(betas, hi - lo)
        else:
            levels, use = _row_quantiles(gain, inner & np.isfinite(gain), beta_quantiles)
            # cap default levels just under the ring minimum: sublevel-set
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
                use[capped, 1:] = fit[:, 1:] != fit[:, :-1]  # one check per level
        shape = levels.shape
        sizes = np.empty(shape, dtype=np.int64)
        contained = np.empty(shape, dtype=bool)
        bounded = np.empty(shape, dtype=bool)
        rows = b[lo:hi]
        for j in range(shape[1]):
            sub = gain <= levels[:, j, None]
            sizes[:, j] = sub.sum(axis=1)
            contained[:, j] = ~(sub & ~inner).any(axis=1)
            vals = np.where(sub, rows, NEG_INF)
            top = vals.max(axis=1)
            bounded[:, j] = (top == NEG_INF) | (inner & (vals == top[:, None])).any(axis=1)
        # no level at all leaves nothing finite to test against
        ok_c = ((contained | ~use).all(axis=1) & use.any(axis=1)).tolist()
        ok_u = (bounded | ~use).all(axis=1).tolist()
        row_checks = _level_checks(levels, use, sizes, contained, bounded)
        for i, edge in enumerate(clipped[lo:hi].tolist()):
            if edge:
                coercive.append(EDGE)
                upper.append(EDGE)
                checks.append([])
                continue
            coercive.append(EVIDENCE if ok_c[i] else VIOLATION)
            upper.append(EVIDENCE if ok_u[i] else VIOLATION)
            checks.append(row_checks[i])
    return CoercivityReport(
        margin=float(window_margin),
        coercive=coercive,
        upper_coercive=upper,
        checks=checks,
    )


@dataclass(frozen=True)
class SuperlevelReport:
    """Per-x superlevel-set confinement evidence for b(x,·) - f."""

    margin: float
    verdicts: list
    checks: list = field(repr=False)

    @property
    def all_evidence(self):
        return all(v == EVIDENCE for v in self.verdicts)


def superlevel_compactness_report(
    f,
    k,
    window_margin,
    *,
    betas=None,
    beta_quantiles=(0.75, 0.9),
    sides=None,
):
    """Evidence that superlevel sets {b(x,·) - f >= beta} stay confined.

    Empty superlevel sets count as evidence (there is nothing to escape);
    sets touching an open window edge are violations.  Betas default to
    quantiles of the finite values inside the inner window; a row with
    none (b(x,·) - f is -inf there) has only empty superlevel sets.  Array
    code over blocks of x-rows.
    """
    require_same_grid(f, k.y_grid, "superlevel_compactness_report: f")
    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    neg_f = -f.flat
    verdicts = []
    checks = []
    for lo, hi, _, _ in _row_blocks(k.x_grid, 0):
        vals = otimes(b[lo:hi], neg_f)
        if betas is not None:
            levels, use = _given_levels(betas, hi - lo)
        else:
            levels, use = _row_quantiles(vals, inner & np.isfinite(vals), beta_quantiles)
        sizes = np.empty(levels.shape, dtype=np.int64)
        contained = np.empty(levels.shape, dtype=bool)
        for j in range(levels.shape[1]):
            sup = vals >= levels[:, j, None]
            sizes[:, j] = sup.sum(axis=1)
            contained[:, j] = ~(sup & ~inner).any(axis=1)
        ok = (contained | ~use).all(axis=1).tolist()
        verdicts.extend(EVIDENCE if v else VIOLATION for v in ok)
        checks.extend(_level_checks(levels, use, sizes, contained))
    return SuperlevelReport(margin=float(window_margin), verdicts=verdicts, checks=checks)
