"""Extended-real scalars with max-plus conventions, grids, grid functions.

The scalar domain is R ∪ {-inf, +inf} represented as float64.  Addition
treats -inf as absorbing (so +inf + -inf = -inf, never NaN), max is the
semiring addition, and negation swaps the two infinities.  NaN is
rejected at every construction site.

Grids are uniform rectangular lattices in one or two dimensions.  Node
coordinates are reproducible bit-exactly as ``lo + index * h`` with
``h = (hi - lo) / (n - 1)``, evaluated in exactly that order.

Every type here is immutable after construction (value arrays are marked
read-only) and every operation is pure, so concurrent use needs no
locking.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ValidationError

NEG_INF = float("-inf")
POS_INF = float("inf")


def otimes(a, b):
    """Max-plus multiplication: a + b with -inf absorbing.

    Works on scalars and arrays; +inf + -inf = -inf in every context.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isneginf(a) | np.isneginf(b), NEG_INF, a + b)
    if out.ndim == 0:
        return float(out)
    return out


def check_values(values, what="values"):
    """Return a float64 array with NaN rejected."""
    arr = np.asarray(values, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValidationError(f"{what}: NaN is not an extended real")
    return arr


def _as_axis_tuple(v, dim, what):
    if np.isscalar(v):
        t = tuple(float(v) for _ in range(dim))
    else:
        t = tuple(float(x) for x in v)
    if len(t) != dim:
        raise ValidationError(f"{what}: expected {dim} per-axis entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid in 1 or 2 dimensions.

    ``lo``, ``hi`` and ``n`` are per-axis tuples; scalars are accepted for
    1-D grids.  Per axis: n >= 1, lo <= hi, and lo == hi only when n == 1.
    Bounds and their span hi - lo must be finite.
    """

    lo: tuple
    hi: tuple
    n: tuple

    def __post_init__(self):
        lo, hi, n = self.lo, self.hi, self.n
        if np.isscalar(lo) and np.isscalar(hi) and np.isscalar(n):
            dim = 1
        else:
            dim = len(n) if not np.isscalar(n) else len(lo)
        if dim not in (1, 2):
            raise ValidationError(f"grid dimension must be 1 or 2, got {dim}")
        lo = _as_axis_tuple(lo, dim, "lo")
        hi = _as_axis_tuple(hi, dim, "hi")
        if np.isscalar(n):
            n = (int(n),) * dim
        else:
            n = tuple(int(k) for k in n)
        if len(n) != dim:
            raise ValidationError("n: per-axis entry count mismatch")
        for a, b, k in zip(lo, hi, n):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValidationError("grid bounds must be finite")
            if k < 1:
                raise ValidationError("grid needs at least one node per axis")
            if a > b:
                raise ValidationError("grid lower bound exceeds upper bound")
            if not np.isfinite(b - a):  # Python floats: an overflow is inf, no warning
                raise ValidationError(f"grid span {b} - ({a}) leaves the float range")
            if a == b and k != 1:
                raise ValidationError("degenerate axis (lo == hi) requires n == 1")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)

    @classmethod
    def line(cls, lo, hi, n):
        return cls((float(lo),), (float(hi),), (int(n),))

    @classmethod
    def box(cls, lo, hi, n):
        return cls(tuple(lo), tuple(hi), tuple(n))

    @property
    def dim(self):
        return len(self.n)

    @property
    def shape(self):
        return self.n

    @property
    def size(self):
        return int(np.prod(self.n))

    def step(self, axis=0):
        if self.n[axis] == 1:
            return 0.0
        return (self.hi[axis] - self.lo[axis]) / (self.n[axis] - 1)

    def axis_coords(self, axis=0):
        """Coordinates along one axis: lo + index * h, in that order."""
        h = self.step(axis)
        return self.lo[axis] + np.arange(self.n[axis], dtype=np.float64) * h

    @cached_property
    def coords(self):
        """Node coordinates: shape (size,) for 1-D, (size, 2) for 2-D.

        Row-major node ordering throughout the package.
        """
        if self.dim == 1:
            c = self.axis_coords(0)
        else:
            a0 = self.axis_coords(0)
            a1 = self.axis_coords(1)
            g0, g1 = np.meshgrid(a0, a1, indexing="ij")
            c = np.stack([g0.ravel(), g1.ravel()], axis=1)
        c.setflags(write=False)
        return c

    def __repr__(self):
        axes = "x".join(
            f"[{a},{b}]/{k}" for a, b, k in zip(self.lo, self.hi, self.n)
        )
        return f"Grid({axes})"


@dataclass(frozen=True)
class GridFn:
    """A function sampled on a grid, extended-real valued.

    ``values`` has the grid's shape.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = check_values(self.values)
        if arr.shape != self.grid.shape:
            if arr.size == self.grid.size:
                arr = arr.reshape(self.grid.shape)
            else:
                raise ValidationError(
                    f"values shape {arr.shape} does not match grid {self.grid.shape}"
                )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def flat(self):
        return self.values.reshape(-1)


def indicator(grid, mask):
    """Max-plus characteristic function: 0 on the set, -inf off it."""
    mask = np.asarray(mask, dtype=bool).reshape(grid.shape)
    vals = np.where(mask, 0.0, NEG_INF)
    return GridFn(grid, vals)


def node_mask(grid, nodes):
    """Flat bool mask of a node set: a bool mask, an index list, or None
    for every node.  A bool mask comes back as a view."""
    if nodes is None:
        return np.ones(grid.size, dtype=bool)
    nodes = np.asarray(nodes)
    if nodes.dtype == bool:
        return nodes.reshape(-1)
    mask = np.zeros(grid.size, dtype=bool)
    mask[nodes.reshape(-1).astype(np.int64)] = True
    return mask


def require_same_grid(fn, grid, what):
    if fn.grid != grid:
        raise GridMismatchError(what, grid, fn.grid)


def ball_extreme(values, radius, op, axes):
    """``op``-reduction of ``values`` over the Chebyshev ball along ``axes``.

    The ball is clipped to the array, which is what an edge-clamped
    (``nearest``) filter gives for a max or a min, since a clamped index
    repeats a value that is already in the ball.  The box is separable:
    one pass per axis, each combining 2*radius shifted slices.  ``op`` is
    ``np.maximum`` or ``np.minimum``, which do no rounding, so the result
    is exact.  Single-node axes are skipped; the dtype is kept, so bool
    arrays work too.
    """
    out = np.asarray(values)
    passes = [ax for ax in axes if out.shape[ax] > 1]
    if not passes:
        return out.copy()
    for ax in passes:
        n = out.shape[ax]
        acc = out.copy()
        dst, src = np.moveaxis(acc, ax, 0), np.moveaxis(out, ax, 0)  # views
        for s in range(1, min(radius, n - 1) + 1):
            op(dst[: n - s], src[s:], out=dst[: n - s])
            op(dst[s:], src[: n - s], out=dst[s:])
        out = acc
    return out


def stencil_max(values, radius):
    """Dilation by the Chebyshev ball of the given radius (u.s.c. hull)."""
    if radius == 0:
        return np.array(values, dtype=np.float64)
    return ball_extreme(values, radius, np.maximum, range(np.ndim(values)))


def stencil_min(values, radius):
    """Erosion by the Chebyshev ball of the given radius (l.s.c. hull)."""
    if radius == 0:
        return np.array(values, dtype=np.float64)
    return ball_extreme(values, radius, np.minimum, range(np.ndim(values)))


@dataclass(frozen=True)
class DomainMask:
    """Finiteness masks for a grid function.

    ldom = {g < +inf}, udom = {g > -inf}, dom = both, and idom is the part
    of dom where the stencil limsup stays finite.
    """

    ldom: np.ndarray
    udom: np.ndarray
    dom: np.ndarray = field(default=None)
    idom: np.ndarray = field(default=None)


def domain_masks(g, stencil_radius=1):
    """Compute the four finiteness masks of a grid function.

    With radius 0 the local-boundedness mask idom equals dom; otherwise a
    node is in idom when the max of g over the Chebyshev ball around it
    is finite.
    """
    if stencil_radius < 0:
        raise ValidationError("stencil_radius must be >= 0")
    v = g.values
    ldom = v < POS_INF
    udom = v > NEG_INF
    dom = ldom & udom
    local_sup = stencil_max(v, stencil_radius)
    idom = dom & (local_sup < POS_INF)
    for m in (ldom, udom, dom, idom):
        m.setflags(write=False)
    return DomainMask(ldom=ldom, udom=udom, dom=dom, idom=idom)
