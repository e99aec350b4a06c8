"""Stable log-scale normal-distribution helpers, as array code.

``log_gauss_interval`` is elementwise, its three branches masks, and
``log_mgf_piecewise_linear`` sums all its segment terms in one
log-sum-exp; both give the bits of the scalar loops in ``tests/oracles.py``.
Where a steep slope overflows the loop's segment terms into NaN, with a
``RuntimeWarning``, ``log_mgf_piecewise_linear`` reads +inf or raises.
``log_mgf_piecewise_linear_many`` gives its values for many laws of one
piecewise-linear function, with one normal-tail pass for all their
segments: a table kernel's row takes one such call per form class.

The normal tails are numpy code.  ``erfcx(t) = exp(t^2) erfc(t)`` on
0 <= t <= 50 is one degree-7 polynomial per interval of y = 4/(4 + t) of
width 1/100; its table, ``_erfcx_table``, is written by
``tools/fit_erfcx.py``, which fits each interval once with 40-digit
mpmath.  Above 50 it is Laplace's continued fraction at depth 4.  Cf.
Cody, "Rational Chebyshev Approximations for the Error Function", Math.
Comp. 23 (1969), and S. G. Johnson's Faddeeva package, which reads erfcx
piecewise in the same variable.  ``ndtr`` and ``log_ndtr`` derive from
it: P(Z <= -|x|) = erfcx(|x|/sqrt(2)) exp(-x^2/2)/2, with x^2 split so
that no bit of it rounds away, and log_ndtr(x) = log(erfcx(-x/sqrt(2))/2)
- x^2/2 for x < 0, log1p(-ndtr(-x)) for x >= 0.  Against 50-digit mpmath
they stay within 3, 5 and 5 ulp (``tests/test_normal.py``), on each
sample no worse than SciPy's own.

Their exp, log and log1p are numpy's ufunc loops, which on some CPUs
(AVX-512) differ from libm in the last bit: ``erfcx`` is arithmetic
alone and has the same bits on every CPU, ``ndtr`` and ``log_ndtr`` may
not.  The loops give the same bits for an array, a 0-d array and a
scalar, so every shape of input gets the same values.  A scalar runs as
numpy scalar math, which is IEEE arithmetic as well, and spares the
overhead of array operations on one element.
"""

import math

import numpy as np

from ._erfcx_table import HEX
from .errors import ValidationError
from .forms import logsumexp_weighted
from .grids import NEG_INF, POS_INF


# erfcx on 0 <= t <= 50: column k of _TAB serves y = 4/(4 + t) in
# [k/100, (k + 1)/100] (columns 0-6 are never read; column 100, read at
# t = 0 alone, repeats column 99).  Rows 0 and 1, A and B, give the
# interval's local variable s = 200 y - (2k + 1) as (A - B t)/(4 + t), which
# keeps the bits of a small t that 4 + t drops; row 2 + j holds the
# coefficient of s^(7 - j).  One gather reads a column for each argument.
_K = np.concatenate((np.zeros(7), np.arange(7.0, 100.0), [99.0]))
_ROWS = np.frombuffer(bytes.fromhex(HEX), "<f8").reshape(-1, 8)
_POLY = np.vstack([np.zeros((7, 8)), _ROWS, _ROWS[-1:]]).T[::-1]
_TAB = np.ascontiguousarray(np.vstack([796.0 - 8.0 * _K, 2.0 * _K + 1.0, _POLY]))
del _K, _ROWS, _POLY

_ISPI = 0.5641895835477563  # 1/sqrt(pi)
_SQRT1_2 = 0.7071067811865476


def _floats(x):
    """x as float64: a numpy scalar for a scalar, whose arithmetic runs as
    scalar math, the same IEEE operations at a fraction of the cost."""
    x = np.asarray(x, dtype=np.float64)
    return x[()] if x.ndim == 0 else x


def _erfcx(t):
    """erfcx(t) = exp(t^2) erfc(t) for float64 t >= 0 or NaN."""
    near = np.fmin(t, 50.0)
    d = near + 4.0
    k = (400.0 / d).astype(np.intp)
    c = np.take(_TAB, k, axis=1)
    s = (c[0] - c[1] * near) / d
    p = c[2] * s
    for coeff in c[3:-1]:
        p += coeff
        p *= s
    p += c[-1]
    far = ~(t <= 50.0)  # NaN too
    if np.count_nonzero(far):
        if p.ndim:
            p[far] = _erfcx_far(t[far])
        else:
            p = _erfcx_far(t)
    return p


def _erfcx_far(t):
    """erfcx(t) for t > 50, +inf or NaN: Laplace's continued fraction at
    depth 4, (1 - w)/(t sqrt(pi)) with w a rational function of 1/t^2."""
    r = 1.0 / t
    z = r * r
    w = z * (0.5 + 1.75 * z) / (1.0 + z * (5.0 + 3.75 * z))
    return (_ISPI - _ISPI * w) / t


def _exp_half_square(a):
    """exp(-a^2/2) for a >= 0, with a^2 split so that no bit of it rounds
    away; NaN reads 0."""
    a = np.fmin(a, 40.0)  # exp(-800) is 0
    hi = np.rint(a * 128.0) * 0.0078125
    # a^2 = hi^2 + (a - hi)(a + hi), and hi^2 is exact
    return np.exp(hi * hi * -0.5) * np.exp((a - hi) * (a + hi) * -0.5)


def erfcx(t):
    """The scaled complementary error function exp(t^2) erfc(t), t >= 0,
    elementwise."""
    t = _floats(t)
    if np.any(t < 0.0):
        raise ValidationError("erfcx takes t >= 0")
    return _erfcx(t)[()]


def _parts(x):
    """|x| and erfcx(|x|/sqrt(2)), which ndtr and log_ndtr share."""
    a = abs(x)
    return a, _erfcx(a * _SQRT1_2)


def _ndtr(x, a, e):
    # P(Z <= -|x|) = erfcx(|x|/sqrt(2)) exp(-x^2/2) / 2
    tail = 0.5 * e * _exp_half_square(a)
    return np.where(x < 0.0, tail, 1.0 - tail)


def _log_ndtr(x, a, e):
    # x < 0: log(erfcx(-x/sqrt(2))/2) - x^2/2; x >= 0: log1p(-ndtr(-x))
    with np.errstate(over="ignore", divide="ignore"):
        out = np.log(0.5 * e) - x * x * 0.5
    upper = ~(x < 0.0)
    if np.count_nonzero(upper):
        out = np.where(upper, np.log1p(-0.5 * e * _exp_half_square(a)), out)
    return out


def ndtr(x):
    """P(Z <= x) for standard normal Z, elementwise."""
    x = _floats(x)
    return _ndtr(x, *_parts(x))[()]


def log_ndtr(x):
    """log P(Z <= x) for standard normal Z, elementwise."""
    x = _floats(x)
    return _log_ndtr(x, *_parts(x))[()]


def log_gauss_interval(a, b):
    """log P(a <= Z <= b) for standard normal Z, elementwise; floats give a float."""
    out = _log_gauss_interval(a, b, ())[0]
    return float(out) if out.ndim == 0 else out


def _log_gauss_interval(a, b, points):
    """log_gauss_interval(a, b) as an array, and log_ndtr of the 1-D
    ``points``, from one erfcx pass: each is elementwise, so the bits are
    those of separate calls."""
    a, b = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(b, np.float64))
    out = np.full(a.shape, NEG_INF)
    whole = (a == NEG_INF) & (b == np.inf)
    out[whole] = 0.0
    todo = (b > a) & ~whole
    upper = todo & (a >= 0.0)
    tail = upper | (todo & (b <= 0.0))
    # an interval straddling 0 has a probability far from underflow
    mid = todo & ~tail
    # an upper-tail interval [a, b] is the lower-tail one [-b, -a] mirrored
    lo = np.where(upper, -b, a)[tail]
    hi = np.where(upper, -a, b)[tail]
    # log_ndtr of lo, hi and the points; P(Z <= -|x|) at the straddling
    # ends b > 0 > a
    x = np.concatenate((lo, hi, points, b[mid], a[mid]))
    ax, e = _parts(x)
    n, m = lo.size, x.size - 2 * np.count_nonzero(mid)
    ends = _log_ndtr(x[:m], ax[:m], e[:m])
    la, lb = ends[:n], ends[n : 2 * n]
    with np.errstate(divide="ignore"):
        out[tail] = lb + np.log1p(-np.exp(la - lb))
    tails = 0.5 * e[m:] * _exp_half_square(ax[m:])
    n = tails.size // 2
    # ndtr(b) - ndtr(a) = (1 - P(Z <= -b)) - P(Z <= a)
    out[mid] = np.log((1.0 - tails[:n]) - tails[n:])
    return out, ends[2 * lo.size :]


def log_gauss_mass(intervals, mu=0.0, sd=1.0):
    """log P(X in union of intervals) for X ~ N(mu, sd^2).

    ``intervals`` is a sequence of (lo, hi) pairs, disjoint up to
    endpoints; sd == 0 degenerates to a point mass at mu.
    """
    lo, hi = np.asarray(intervals, dtype=np.float64).reshape(-1, 2).T
    if sd == 0.0:
        # a shared endpoint holding mu counts its mass once
        return 0.0 if ((lo <= mu) & (mu <= hi)).any() else NEG_INF
    # an endpoint beyond the float range is infinite, as in Python's float division
    with np.errstate(over="ignore"):
        lo, hi = (lo - mu) / sd, (hi - mu) / sd
    return logsumexp_weighted(log_gauss_interval(lo, hi))


def log_mgf_piecewise_linear(coords, values, scale, mu, sd, state_floor=None):
    """(1/scale) log E[exp(scale * phi(X))] for X ~ N(mu, sd^2).

    ``phi`` is the piecewise-linear interpolant of (coords, values) with
    its end segments extended to infinity; ``state_floor`` composes the
    state with max(X, floor) first.  Values must be finite, and scale > 0.
    Where scale times the largest value leaves the float range, phi is
    shifted down by that value and the result up by it: the log-moment of
    phi + c is c plus that of phi.  Values whose spread leaves the float
    range raise ``ValidationError``.  A segment whose slope puts its term
    beyond the float range makes the value +inf; a term that floats cannot
    form at all (such a slope against a shifted mass below the range),
    with no +inf term beside it, raises ``ValidationError``.
    """
    return log_mgf_piecewise_linear_many(coords, values, [(scale, mu, sd, state_floor)])[0]


def log_mgf_piecewise_linear_many(coords, values, laws):
    """``log_mgf_piecewise_linear(coords, values, *law)`` for each law
    (scale, mu, sd, state_floor), as a list, bit for bit.

    One normal-tail pass serves every law: a law's own pass is a hundred
    or so entries, on which numpy's cost per call outweighs the work.  A
    law that raises raises in its turn, after the laws before it.
    """
    if not laws:
        return []
    coords = np.asarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("piecewise-linear log-mgf needs finite values")
    if coords.size == 1:
        return [float(values[0])] * len(laws)
    pieces = {}
    plans = []
    for law in laws:
        try:
            plans.append(_plan(coords, values, pieces, *law))
        except ValidationError as err:
            plans.append(err)
    todo = [p for p in plans if isinstance(p, _Plan)]
    if todo:
        z = np.concatenate([p.z for p in todo], axis=1)
        points = [p.point for p in todo if p.point is not None]
        with np.errstate(over="ignore", invalid="ignore"):
            masses, heads = _log_gauss_interval(z[0], z[1], points)
    out, at, h = [], 0, 0
    for p in plans:
        if isinstance(p, ValidationError):
            raise ValidationError(*p.args)
        if isinstance(p, _Plan):
            n = p.z.shape[1]
            head = heads[h : h + (p.point is not None)]
            out.append(p.finish(masses[at : at + n], head))
            at, h = at + n, h + head.size
        else:
            out.append(p)
    return out


def _pieces(coords, values):
    """Slope, intercept and bounds of each segment of the interpolant;
    the first and last extend to infinity."""
    slopes = np.diff(values) / np.diff(coords)
    icepts = values[:-1] - slopes * coords[:-1]
    # segment k spans [lo[k], hi[k]]
    k = np.clip(np.arange(-1, coords.size), 0, coords.size - 2)
    lo = np.concatenate(([NEG_INF], coords))
    hi = np.concatenate((coords, [np.inf]))
    return slopes[k], icepts[k], lo, hi


class _Plan:
    """One law's segment terms short of their Gaussian masses: the masses'
    standardised bounds ``z``, the floor's standardised ``point`` (None
    without a floor), and what ``finish`` needs to form the value."""

    def __init__(self, scale, terms, z, point, atom, offset):
        self.scale, self.terms, self.z = scale, terms, z
        self.point, self.atom, self.offset = point, atom, offset

    def finish(self, masses, head):
        """The value from the masses of ``z`` and log_ndtr of ``point``."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.terms + masses
        if (terms == POS_INF).any():
            # a term beyond the float range outweighs every other, NaN or not
            value = POS_INF
        elif np.isnan(terms).any():
            raise ValidationError("piecewise-linear log-mgf: a segment term leaves the float range")
        else:
            if self.point is not None:
                head = self.scale * self.atom + head  # the atom's term
            value = float(logsumexp_weighted(np.concatenate((head, terms))) / self.scale)
        return value if self.offset is None else self.offset + value


def _plan(coords, values, pieces, scale, mu, sd, state_floor, offset=None):
    """One law of ``log_mgf_piecewise_linear_many``: its value where no
    Gaussian mass enters, else its ``_Plan``.  ``pieces`` caches the
    segments of ``values`` (key None) and of values shifted down (key
    ``offset``) across laws."""
    # the atom: at the state itself when sd == 0, else at the floor
    floor = None if state_floor is None else float(state_floor)
    if sd == 0.0:
        floor = mu if floor is None else max(mu, floor)
    atom = None
    if floor is not None:
        j = int(np.clip(np.searchsorted(coords, floor) - 1, 0, coords.size - 2))
        step = (values[j + 1] - values[j]) / (coords[j + 1] - coords[j])
        atom = values[j] + step * (floor - coords[j])
        if sd == 0.0:
            return float(atom)
    if offset is None:
        # Python floats: an overflow here reads inf, with no warning
        top = float(values.max())
        if math.isinf(float(scale) * top):
            if math.isinf(top - float(values.min())):
                raise ValidationError(
                    "piecewise-linear log-mgf: the values' spread leaves the float range"
                )
            return _plan(coords, values - top, pieces, scale, mu, sd, state_floor, top)

    if offset not in pieces:
        pieces[offset] = _pieces(coords, values)
    s, q, lo, hi = pieces[offset]
    point = None
    if floor is not None:
        keep = hi >= floor
        lo = np.where(floor > lo, floor, lo)[keep]
        hi, s, q = hi[keep], s[keep], q[keep]
        point = (floor - mu) / sd
    with np.errstate(over="ignore"):
        # a slope too steep for the float range shifts the mass to ±inf
        shift = mu + scale * s * sd * sd
    z = np.stack([lo, hi])
    # the end segments' infinite bounds stay, whatever the shift
    with np.errstate(invalid="ignore"):
        z = np.where(np.isfinite(z), (z - shift) / sd, z)
    # each segment's term is its Gaussian mass, shifted by its slope
    with np.errstate(over="ignore", invalid="ignore"):
        # such a slope makes the quadratic part +inf, and the term NaN where
        # that meets a linear part of -inf or a shifted mass below the range
        terms = scale * (q + s * mu)
        terms += scale * scale * s * s * sd * sd / 2.0
    return _Plan(scale, terms, z, point, atom, offset)


def mask_runs(grid, mask):
    """Coordinate intervals of the maximal contiguous runs of a 1-D mask."""
    padded = np.zeros(np.size(mask) + 2, dtype=bool)
    padded[1:-1] = np.asarray(mask, dtype=bool).reshape(-1)
    # a run starts and ends where the padded mask changes (its np.diff)
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    c = grid.coords
    return list(zip(c[edges[::2]].tolist(), c[edges[1::2] - 1].tolist()))
