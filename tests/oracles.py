"""High-precision sampling oracle for ray distances.

Independent of the production closed form: the ray is parameterized directly
on its semicircle (angle inverted from hyperbolic arc length) and the
distance is minimized by dense sampling plus ternary refinement. mpmath
precision is needed because deep orbit points sit within 1e-100 of the
boundary, far below float resolution.
"""

from fractions import Fraction

import mpmath


def _mpf(q):
    if isinstance(q, Fraction):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)
    return mpmath.mpf(q)


def mp_hyp_dist(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return mpmath.acosh(1 + (dx * dx + dy * dy) / (2 * p[1] * q[1]))


def mp_dist_to_ray_from_i(p, eta, dps=300, coarse=500):
    """Min distance from p to the ray from (0,1) toward the boundary point
    eta, by brute-force sampling in hyperbolic arc length."""
    with mpmath.workdps(dps):
        px, py, ex = _mpf(p[0]), _mpf(p[1]), _mpf(eta)
        # semicircle through (0,1) and eta: center c on the real line
        c = (1 - ex * ex) / (-2 * ex)
        r = mpmath.sqrt(c * c + 1)
        phi0 = mpmath.atan2(mpmath.mpf(1), -c)
        sgn = 1 if ex > c else -1

        def at(t):
            # angle at arc length t from (0,1) heading toward eta
            half = mpmath.tan(phi0 / 2) * mpmath.exp(-t if sgn == 1 else t)
            phi = 2 * mpmath.atan(half)
            if sgn == -1:
                phi = mpmath.pi - 2 * mpmath.atan(
                    mpmath.tan((mpmath.pi - phi0) / 2) * mpmath.exp(-t)
                )
            return (c + r * mpmath.cos(phi), r * mpmath.sin(phi))

        reach = mp_hyp_dist((px, py), (mpmath.mpf(0), mpmath.mpf(1))) + 1

        def f(t):
            return mp_hyp_dist((px, py), at(t))

        ts = [reach * k / coarse for k in range(coarse + 1)]
        vals = [f(t) for t in ts]
        best = min(range(len(ts)), key=lambda i: vals[i])
        lo = ts[max(0, best - 1)]
        hi = ts[min(len(ts) - 1, best + 1)]
        for _ in range(120):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if f(m1) <= f(m2):
                hi = m2
            else:
                lo = m1
        return float(f((lo + hi) / 2))


# -- exact Fraction formulas for the integer arithmetic of the package ------
#
# Each works on det-1 Fraction entries (a, b, c, d) and Fraction coordinates,
# following the textbook derivation rather than the package's integer code.


def frac_mobius_boundary(m, x):
    """(a x + b)/(c x + d) on the real line (x not the pole)."""
    a, b, c, d = m
    return (a * x + b) / (c * x + d)


def frac_mobius_interior(m, x, y):
    """(a z + b)/(c z + d) at z = x + iy, as complex division of the pairs
    (a x + b, a y) / (c x + d, c y) by the conjugate of the denominator."""
    a, b, c, d = m
    nre, nim = a * x + b, a * y
    dre, dim = c * x + d, c * y
    norm = dre * dre + dim * dim
    return (nre * dre + nim * dim) / norm, (nim * dre - nre * dim) / norm


def frac_sinh2_half(p, q):
    """sinh^2(d/2) = |p - q|^2 / (4 Im p Im q) for points given as (x, y)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return (dx * dx + dy * dy) / (4 * p[1] * q[1])


def frac_disk_chain(mats, lo, hi):
    """Footprint of the image of the half-disk on [lo, hi] under
    mats[0] mats[1] ... mats[-1], mapped one matrix at a time from the
    innermost; each step requires the pole outside the closed footprint."""
    for m in reversed(mats):
        a, b, c, d = m
        if c != 0:
            pole = -d / c
            assert not lo <= pole <= hi, "image is not a bounded disk"
        lo, hi = sorted((frac_mobius_boundary(m, lo), frac_mobius_boundary(m, hi)))
    return lo, hi
