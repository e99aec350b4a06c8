"""Fit the piecewise polynomial of ``maxplus._normal.erfcx`` and write its table.

For 0 <= t <= 50, erfcx(t) = exp(t²) erfc(t) is read as a function of
y = 4/(4 + t), which maps [0, 50] into (0.074, 1].  Interval k covers
k/100 <= y <= (k + 1)/100, for k = 7, ..., 99, with the local variable
s = 200·y − (2k + 1) in [−1, 1].  On each interval the degree-7
polynomial in s that interpolates erfcx at the eight Chebyshev points of
the first kind is solved for with 40-digit mpmath, and its coefficients,
constant term first, are rounded once to the nearest double.  The
interpolant misses erfcx by less than 1e-19 relative on every interval
(``max_fit_error``), far below the rounding of the double evaluation.

Run from the root of a checkout (needs mpmath)::

    python tools/fit_erfcx.py > src/maxplus/_erfcx_table.py

Cf. Cody, "Rational Chebyshev Approximations for the Error Function",
Math. Comp. 23 (1969), and S. G. Johnson's Faddeeva package, which
reads erfcx piecewise in the same variable.
"""

import struct
import sys

import mpmath

FIRST, INTERVALS, DEGREE = 7, 100, 7
DIGITS = 40


def erfcx(t):
    return mpmath.exp(t * t) * mpmath.erfc(t)


def t_of(k, s):
    """The t whose y = 4/(4 + t) sits at s in interval k."""
    y = (s + 2 * k + 1) / (2 * INTERVALS)
    return 4 / y - 4


def fit_interval(k):
    """Interval k's coefficients in s, constant term first, as mpmath numbers."""
    with mpmath.workdps(DIGITS):
        n = DEGREE + 1
        nodes = [mpmath.cos(mpmath.pi * (2 * j + 1) / (2 * n)) for j in range(n)]
        vander = mpmath.matrix([[s**i for i in range(n)] for s in nodes])
        values = mpmath.matrix([erfcx(t_of(k, s)) for s in nodes])
        return list(mpmath.lu_solve(vander, values))


def fit_table():
    """Every interval's coefficients, rounded to doubles: one tuple per interval."""
    return [tuple(float(c) for c in fit_interval(k)) for k in range(FIRST, INTERVALS)]


def max_fit_error(k, samples=64):
    """Largest relative miss of interval k's unrounded interpolant on a grid of s."""
    coeffs = fit_interval(k)
    with mpmath.workdps(DIGITS):
        worst = mpmath.mpf(0)
        for j in range(samples + 1):
            s = mpmath.mpf(2 * j) / samples - 1
            p = mpmath.polyval(coeffs[::-1], s)
            want = erfcx(t_of(k, s))
            worst = max(worst, abs(p / want - 1))
        return worst


def render(table):
    """The table module: one line of hex per interval, its eight doubles in
    little-endian IEEE form, so that it compiles as a few string literals
    rather than as hundreds of float literals."""
    lines = [
        '"""erfcx(t) on 0 <= t <= 50, one degree-7 polynomial per interval of',
        "y = 4/(4 + t).  Line k - 7 of HEX holds interval k's coefficients in",
        "s = 200·y − (2k + 1), constant term first, as eight little-endian IEEE",
        "doubles in hex.  Written by ``tools/fit_erfcx.py``; do not edit.\"\"\"",
        "",
        "HEX = (",
    ]
    lines += ['    "' + struct.pack("<8d", *row).hex() + '"' for row in table]
    lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render(fit_table()))
