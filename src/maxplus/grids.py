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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ValidationError

NEG_INF = float("-inf")
POS_INF = float("inf")


def otimes(a, b):
    """Max-plus multiplication: a + b with -inf absorbing.

    Works on scalars and arrays; +inf + -inf = -inf in every context.  A
    finite sum past the float range is the infinity of its sign, which is
    the max-plus product, so it raises no overflow warning.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(np.isneginf(a) | np.isneginf(b), NEG_INF, a + b)
    if out.ndim == 0:
        return float(out)
    return out


def check_values(values, what="values"):
    """Return a float64 array with NaN rejected.

    Only integer and float arrays convert: bools, strings and objects
    raise ValidationError instead of reading as numbers.  numpy promotes
    a bool inside a list of numbers to a number, so the elements of an
    input that is not an ndarray are checked one by one.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what}: expected numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ValidationError(f"{what}: expected numbers, got a bool")
    arr = arr.astype(np.float64, copy=False)
    if np.isnan(arr).any():
        raise ValidationError(f"{what}: NaN is not an extended real")
    return arr


def check_real(value, what):
    """``value`` as a float; a bool or a value that is not a real number
    (a string, say) raises ValidationError instead of converting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} is a real number, got {value!r}")
    return float(value)


def _as_axis_tuple(v, dim, what):
    t = tuple(check_real(x, what) for x in ((v,) * dim if np.ndim(v) == 0 else v))
    if len(t) != dim:
        raise ValidationError(f"{what}: expected {dim} per-axis entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid in 1 or 2 dimensions.

    ``lo``, ``hi`` and ``n`` are per-axis tuples; scalars are accepted for
    1-D grids.  Per axis: n is an integer >= 1 (a Python or numpy integer,
    not a float or a bool), lo <= hi, and lo == hi only when n == 1.
    Bounds are real numbers (not bools or strings), and they and their
    span hi - lo must be finite.  The last node lo + (n - 1)·h, with the
    float step h = (hi - lo) / (n - 1), must lie within h/2 of hi; only
    nodes a few units in the last place apart fail this, as on a span of
    a few subnormal steps, where h rounds by a large fraction of itself.
    """

    lo: tuple
    hi: tuple
    n: tuple

    def __post_init__(self):
        lo, hi, n = self.lo, self.hi, self.n
        if np.ndim(lo) == np.ndim(hi) == np.ndim(n) == 0:
            dim = 1
        else:
            dim = len(n) if np.ndim(n) else len(lo)
        if dim not in (1, 2):
            raise ValidationError(f"grid dimension must be 1 or 2, got {dim}")
        lo = _as_axis_tuple(lo, dim, "lo")
        hi = _as_axis_tuple(hi, dim, "hi")
        n = (n,) * dim if np.ndim(n) == 0 else tuple(n)
        if len(n) != dim:
            raise ValidationError("n: per-axis entry count mismatch")
        if any(isinstance(k, bool) or not isinstance(k, numbers.Integral) for k in n):
            raise ValidationError(f"n: node counts are integers, got {n!r}")
        n = tuple(int(k) for k in n)
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
            if k > 1:  # the last node as axis_coords builds it, within h/2 of hi
                h = (b - a) / (k - 1)
                last = a + (k - 1) * h
                if 2 * abs(last - b) >= h:
                    raise ValidationError(
                        f"grid step ({b} - ({a})) / {k - 1} rounds to {h!r}, so the "
                        f"last node is {last!r}, not hi"
                    )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)

    @classmethod
    def line(cls, lo, hi, n):
        return cls((lo,), (hi,), (n,))

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
    """Max-plus characteristic function: 0 on the set, -inf off it.

    ``mask`` is a node set as ``node_mask`` reads it.
    """
    vals = np.where(node_mask(grid, mask).reshape(grid.shape), 0.0, NEG_INF)
    return GridFn(grid, vals)


def node_mask(grid, nodes):
    """Flat bool mask of a node set: a bool mask, an index list, or None
    for every node.  A bool mask comes back as a view.  A mask of another
    size than the grid, an index list that holds anything but integers
    (a float, or a bool among integers) and an index outside [0, size)
    raise ``ValidationError``."""
    if nodes is None:
        return np.ones(grid.size, dtype=bool)
    # np.asarray reads [True, 2] as [1, 2], so a list's entries are checked one by one
    entries = () if isinstance(nodes, np.ndarray) else np.asarray(nodes, dtype=object).flat
    nodes = np.asarray(nodes)
    if nodes.dtype == bool:
        if nodes.size != grid.size:
            raise ValidationError(
                f"node mask has {nodes.size} entries for a grid of {grid.size} nodes"
            )
        return nodes.reshape(-1)
    if nodes.size and (
        nodes.dtype.kind not in "iu" or any(isinstance(v, (bool, np.bool_)) for v in entries)
    ):
        raise ValidationError("node indices must be integers, not floats or bools")
    idx = nodes.reshape(-1).astype(np.int64)
    if idx.size and not (0 <= idx.min() and idx.max() < grid.size):
        raise ValidationError(f"node indices must lie in [0, {grid.size})")
    mask = np.zeros(grid.size, dtype=bool)
    mask[idx] = True
    return mask


def require_same_grid(fn, grid, what):
    if fn.grid != grid:
        raise GridMismatchError(what, grid, fn.grid)


def ball_extreme(values, op, axes):
    """``op``-reduction of ``values`` over the radius-1 Chebyshev ball along ``axes``.

    The ball is clipped to the array, which is what an edge-clamped
    (``nearest``) filter gives for a max or a min, since a clamped index
    repeats a value that is already in the ball.  The box is separable:
    one pass per axis, each combining the two neighbouring slices.  ``op``
    is ``np.maximum`` or ``np.minimum``, which do no rounding, so the
    result is exact.  Single-node axes are skipped; the dtype is kept, so
    bool arrays work too.
    """
    out = np.asarray(values)
    passes = [ax for ax in axes if out.shape[ax] > 1]
    if not passes:
        return out.copy()
    for ax in passes:
        acc = out.copy()
        dst, src = np.moveaxis(acc, ax, 0), np.moveaxis(out, ax, 0)  # views
        op(dst[:-1], src[1:], out=dst[:-1])
        op(dst[1:], src[:-1], out=dst[1:])
        out = acc
    return out


def stencil_max(values):
    """Dilation by the radius-1 Chebyshev ball (u.s.c. hull)."""
    return ball_extreme(values, np.maximum, range(np.ndim(values)))


def stencil_min(values):
    """Erosion by the radius-1 Chebyshev ball (l.s.c. hull)."""
    return ball_extreme(values, np.minimum, range(np.ndim(values)))


@dataclass(frozen=True)
class DomainMask:
    """Finiteness masks for a grid function.

    ldom = {g < +inf}, udom = {g > -inf}, dom = both, and idom is the part
    of dom where the stencil limsup stays finite.
    """

    ldom: np.ndarray
    udom: np.ndarray
    dom: np.ndarray
    idom: np.ndarray


def domain_masks(g):
    """Compute the four finiteness masks of a grid function.

    A node is in the local-boundedness mask idom when it is in dom and
    the max of g over the radius-1 Chebyshev ball around it is finite.
    """
    v = g.values
    ldom = v < POS_INF
    udom = v > NEG_INF
    dom = ldom & udom
    local_sup = stencil_max(v)
    idom = dom & (local_sup < POS_INF)
    for m in (ldom, udom, dom, idom):
        m.setflags(write=False)
    return DomainMask(ldom=ldom, udom=udom, dom=dom, idom=idom)
