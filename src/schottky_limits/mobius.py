"""Exact 2x2 rational-matrix isometries of the upper half-plane, plus metric geometry.

PSL(2,R) acts projectively, so a group element is stored as a primitive
integer matrix (a, b, c, d): divided by the gcd of its entries, with its
first nonzero entry positive, together with s = sqrt(ad - bc). This form is
canonical, so data equality decides equality in PSL(2,R), and its det-1
entries are the Fractions a/s, b/s, c/s, d/s. Products, inverses, the action
on exact points and exact distances run on integer numerators; metric
quantities (distances, ray projections) are computed in floats from exact
rationals, and everything algebraic stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class IdentityElement(ValueError):
    """Raised when an operation requires a non-identity isometry."""


class BoundaryPoint(ValueError):
    """Raised when a metric operation receives a non-interior point."""


class NonUnitDeterminant(ValueError):
    """Raised when matrix entries cannot be rescaled to determinant 1."""


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Interior:
    x: object  # Fraction or float
    y: object  # > 0

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError("interior point needs y > 0")


@dataclass(frozen=True)
class Boundary:
    x: object


class Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = Infinity()

Point = Union[Interior, Boundary, Infinity]

#: Base point o = i of the half-plane; all orbit/displacement computations use it.
BASE_POINT = Interior(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class GeodesicRay:
    base: Interior
    endpoint: Point  # Boundary or Infinity

    def __post_init__(self):
        if not isinstance(self.base, Interior):
            raise BoundaryPoint("ray base must be interior")
        if not isinstance(self.endpoint, (Boundary, Infinity)):
            raise ValueError("ray endpoint must be on the boundary")


class IsometryClass:
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class GroupElement:
    a: int
    b: int
    c: int
    d: int
    s: int  # sqrt(ad - bc) > 0

    @classmethod
    def of(cls, m11, m12, m21, m22) -> "GroupElement":
        """Build from rational entries of any positive square determinant.

        Entries are cleared of denominators and reduced to the primitive
        integer matrix; inputs whose determinant is not a positive rational
        square are rejected.
        """
        e = [Fraction(v) for v in (m11, m12, m21, m22)]
        den = math.lcm(*(v.denominator for v in e))
        a, b, c, d = (v.numerator * (den // v.denominator) for v in e)
        det = a * d - b * c
        if det <= 0:
            raise NonUnitDeterminant(f"determinant {Fraction(det, den * den)} is not positive")
        s = math.isqrt(det)
        if s * s != det:
            raise NonUnitDeterminant(
                f"determinant {Fraction(det, den * den)} has no rational square root"
            )
        return _primitive(a, b, c, d, s)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0, 0, 1, 1)

    def is_identity(self) -> bool:
        return self == GroupElement.identity()

    @property
    def m11(self) -> Fraction:
        return Fraction(self.a, self.s)

    @property
    def m12(self) -> Fraction:
        return Fraction(self.b, self.s)

    @property
    def m21(self) -> Fraction:
        return Fraction(self.c, self.s)

    @property
    def m22(self) -> Fraction:
        return Fraction(self.d, self.s)

    def entries(self):
        """The det-1 representative as Fractions."""
        return (self.m11, self.m12, self.m21, self.m22)

    def trace(self) -> Fraction:
        return Fraction(self.a + self.d, self.s)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def inverse(self) -> "GroupElement":
        return inverse(self)

    def __call__(self, p: Point) -> Point:
        return apply(self, p)


def _primitive(a: int, b: int, c: int, d: int, scale: int) -> GroupElement:
    """The canonical element of an integer matrix of determinant scale**2:
    divided by its content, first nonzero entry positive."""
    k = math.gcd(a, b, c, d)
    # det > 0, so a == 0 forces b != 0: the first nonzero entry is a or b
    if a < 0 or (a == 0 and b < 0):
        k = -k
    return GroupElement(a // k, b // k, c // k, d // k, scale // abs(k))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    return _primitive(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
        g.s * h.s,
    )


def inverse(g: GroupElement) -> GroupElement:
    return _primitive(g.d, -g.b, -g.c, g.a, g.s)


def apply(g, p: Point) -> Point:
    """Extended Mobius action z -> (a z + b)/(c z + d).

    g is a GroupElement or an entry tuple (a, b, c, d) with any positive
    determinant, such as the matrices of _standard_position; only the latter
    scale the image height by the determinant. A GroupElement moves an
    interior point with Fraction coordinates on integer numerators.
    """
    if isinstance(g, GroupElement):
        if isinstance(p, Interior) and type(p.x) is type(p.y) is Fraction:
            return _apply_exact(g, p)
        a, b, c, d = g.entries()
    else:
        a, b, c, d = g
    if isinstance(p, Infinity):
        if c == 0:
            return INFINITY
        return Boundary(a / c)
    if isinstance(p, Boundary):
        den = c * p.x + d
        if den == 0:
            return INFINITY
        return Boundary((a * p.x + b) / den)
    x, y = p.x, p.y
    den = (c * x + d) ** 2 + (c * y) ** 2
    nx = (a * x + b) * (c * x + d) + a * c * y * y
    if not isinstance(g, GroupElement):
        y = (a * d - b * c) * y
    return Interior(nx / den, y / den)


def _apply_exact(g: GroupElement, p: Interior) -> Interior:
    """g(x + iy) for x = xn/xd, y = yn/yd: with u = c x + d and v = a x + b,
    the image is (u v + a c y^2, s^2 y) / (u^2 + c^2 y^2) in the integer
    entries; scaling by (xd yd)^2 leaves one integer ratio per coordinate."""
    a, b, c, d = g.a, g.b, g.c, g.d
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    u = (c * xn + d * xd) * yd  # u xd yd
    w = c * xd * yn  # c y xd yd
    den = u * u + w * w
    nx = u * (a * xn + b * xd) * yd + w * a * xd * yn
    ny = g.s * g.s * xd * xd * yn * yd
    return Interior(Fraction(nx, den), Fraction(ny, den))


def classify(g: GroupElement) -> str:
    """Trace trichotomy on the det-1 representative, decided exactly."""
    if g.is_identity():
        raise IdentityElement("identity has no isometry class")
    t = abs(g.trace())
    if t < 2:
        return IsometryClass.ELLIPTIC
    if t == 2:
        return IsometryClass.PARABOLIC
    return IsometryClass.LOXODROMIC


def fixed_points(g: GroupElement):
    """Boundary fixed points: 2 for loxodromic, 1 for parabolic, 0 for elliptic.

    Solutions of m21 z^2 + (m22 - m11) z - m12 = 0 on the extended real line.
    Exact when the discriminant is a rational square, floats otherwise.
    """
    if g.is_identity():
        raise IdentityElement("identity fixes everything")
    if g.m21 == 0:
        pts = [INFINITY]
        if g.m11 != g.m22:
            pts.append(Boundary(g.m12 / (g.m22 - g.m11)))
        return set(pts)
    disc = g.trace() ** 2 - 4
    if disc < 0:
        return set()
    s = _rational_sqrt(disc)
    a2 = 2 * g.m21
    if s is not None:
        r1 = (g.m11 - g.m22 + s) / a2
        r2 = (g.m11 - g.m22 - s) / a2
    else:
        fs = math.sqrt(float(disc))
        r1 = (float(g.m11 - g.m22) + fs) / float(a2)
        r2 = (float(g.m11 - g.m22) - fs) / float(a2)
    if disc == 0:
        return {Boundary(r1)}
    return {Boundary(r1), Boundary(r2)}


def attracting_fixed_point(g: GroupElement) -> Point:
    """The attracting boundary fixed point of a loxodromic element."""
    if classify(g) != IsometryClass.LOXODROMIC:
        raise ValueError("attracting fixed point requires a loxodromic element")
    if g.m21 == 0:
        if abs(g.m11) > abs(g.m22):
            return INFINITY
        return Boundary(g.m12 / (g.m22 - g.m11))
    # fixed point from the dominant eigenvector (lam - m22)/m21; this stays
    # stable for matrices with very large entries, unlike the derivative test
    tr = g.trace()
    disc = tr * tr - 4
    s = _rational_sqrt(disc)
    if s is not None:
        lam = (tr + s) / 2 if tr > 0 else (tr - s) / 2
        return Boundary((lam - g.m22) / g.m21)
    fs = math.sqrt(float(disc))
    ftr = float(tr)
    lam = (ftr + fs) / 2 if ftr > 0 else (ftr - fs) / 2
    return Boundary((lam - float(g.m22)) / float(g.m21))


def hyp_dist(p: Point, q: Point) -> float:
    """Hyperbolic distance, via 2*asinh of the half chordal ratio (stable near 0)."""
    if not isinstance(p, Interior) or not isinstance(q, Interior):
        raise BoundaryPoint("hyp_dist needs interior points")
    px, py, qx, qy = p.x, p.y, q.x, q.y
    if type(px) is type(py) is type(qx) is type(qy) is Fraction:
        # sinh^2(d/2) as one integer ratio; int true division rounds
        # correctly, as float(Fraction) does
        xd, yd = px.denominator * qx.denominator, py.denominator * qy.denominator
        dx = (px.numerator * qx.denominator - qx.numerator * px.denominator) * yd
        dy = (py.numerator * qy.denominator - qy.numerator * py.denominator) * xd
        s2 = (dx * dx + dy * dy) / (4 * py.numerator * qy.numerator * yd * xd * xd)
    else:
        dx = px - qx
        dy = py - qy
        s2 = float((dx * dx + dy * dy) / (4 * py * qy))
    return 2.0 * math.asinh(math.sqrt(s2))


def _standard_position(ray: GeodesicRay):
    """Matrix (positive determinant, same number type as the ray data) whose
    Mobius action sends the ray's geodesic to the imaginary axis.

    The ray endpoint goes to Infinity; the opposite endpoint of the full
    geodesic goes to 0, so the image ray points straight up from the image
    of the base. Exact when the ray data is rational.
    """
    bx, by = ray.base.x, ray.base.y
    one = bx - bx + 1  # 1 in the ray's number type
    if isinstance(ray.endpoint, Infinity):
        return (one, -bx, 0 * one, one)
    ex = ray.endpoint.x
    if bx == ex:
        # vertical ray pointing down: z -> -1/(z - ex) sends ex to Infinity
        # and keeps the line vertical.
        return (0 * one, -one, one, -ex)
    c = (bx * bx + by * by - ex * ex) / (2 * (bx - ex))
    e2 = 2 * c - ex  # opposite endpoint of the semicircle
    if e2 > ex:
        return (one, -e2, one, -ex)
    return (-one, e2, one, -ex)


def dist_to_ray(p: Point, ray: GeodesicRay) -> float:
    """Distance from an interior point to a geodesic ray.

    Moves the ray onto the upward vertical axis, where the distance to the
    full geodesic is asinh(|x|/y) and the projection foot sits at height
    |z|; if the foot falls below the ray's base the distance to the base
    point is returned instead.
    """
    if not isinstance(p, Interior):
        raise BoundaryPoint("dist_to_ray needs an interior point")
    g = _standard_position(ray)
    q = apply(g, p)
    base = apply(g, ray.base)
    # foot of the perpendicular from q onto the axis is at height |q|
    if q.x * q.x + q.y * q.y >= base.y * base.y:
        return math.asinh(abs(float(q.x / q.y)))
    return hyp_dist(p, ray.base)


def point_along_ray(ray: GeodesicRay, t: float) -> Interior:
    """The point at hyperbolic distance t from the base along the ray."""
    g = _standard_position(ray)
    base = apply(g, ray.base)
    q = Interior(0.0, float(base.y) * math.exp(t))
    a, b, c, d = g
    # the adjugate inverts g up to a positive scale, which the action ignores
    return apply((d, -b, -c, a), q)
