"""Exact 2x2 rational-matrix isometries of the upper half-plane, plus metric geometry.

PSL(2,R) acts projectively, so a group element is stored as a primitive
integer matrix (a, b, c, d): divided by the gcd of its entries, with its
first nonzero entry positive, together with s = sqrt(ad - bc). This form is
canonical, so data equality decides equality in PSL(2,R), and its det-1
entries are the Fractions a/s, b/s, c/s, d/s. Every point is exact: an
interior point is one primitive integer triple and a boundary point one
Fraction, and a float coordinate is read at its exact binary value.
Products, inverses and the action run on integer numerators, and everything
algebraic stays exact. Distances use the closed forms of the half-plane
metric (Beardon, The Geometry of Discrete Groups, ch. 7): the distance
between two points and the distance to a geodesic ray are each one exact
rational of integer numerators, rounded to a float once, before the final
square root or asinh; whether the foot of the perpendicular lies on the ray
is decided exactly. The displacement d(i, g(i)) of the base point is the same
rational read off the matrix entries, with no image point built. Those
distances are the only floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .value import Value, init_field


class BoundaryPoint(ValueError):
    """Raised when a metric operation receives a non-interior point."""


class NonUnitDeterminant(ValueError):
    """Raised when matrix entries cannot be rescaled to determinant 1."""


class Interior(Value):
    """A point x + iy of the upper half-plane, y > 0.

    It is stored as one integer triple (xn + i yn)/den with den > 0 and
    gcd(xn, yn, den) = 1, and x and y are the Fractions xn/den and yn/den.
    The coordinates may be given as any rationals; a float is taken at its
    exact binary value, and a non-finite one raises ValueError.
    """

    __slots__ = ("xn", "yn", "den")
    _fields = ("x", "y")

    def __init__(self, x, y):
        x, y = _exact(x), _exact(y)
        if not y > 0:
            raise ValueError("interior point needs y > 0")
        # x and y are in lowest terms, so their lcm denominator leaves a
        # primitive triple
        den = math.lcm(x.denominator, y.denominator)
        _set_triple(
            self, x.numerator * (den // x.denominator), y.numerator * (den // y.denominator), den
        )

    @property
    def x(self) -> Fraction:
        return Fraction(self.xn, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.yn, self.den)


def _exact(v) -> Fraction:
    """v as a Fraction; a float is taken at its exact binary value."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"coordinate {v} is not finite")
    return Fraction(v)


def _set_triple(p: Interior, xn: int, yn: int, den: int) -> Interior:
    init_field(p, "xn", xn)
    init_field(p, "yn", yn)
    init_field(p, "den", den)
    return p


class Boundary(Value):
    """A real point x of the boundary, stored as a Fraction; a float is taken
    at its exact binary value, and a non-finite one raises ValueError."""

    __slots__ = ("x",)

    def __init__(self, x):
        init_field(self, "x", _exact(x))


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


class GeodesicRay(Value):
    __slots__ = ("base", "endpoint")

    def __init__(self, base: Interior, endpoint: Point):
        if not isinstance(base, Interior):
            raise BoundaryPoint("ray base must be interior")
        if not isinstance(endpoint, (Boundary, Infinity)):
            raise ValueError("ray endpoint must be on the boundary")
        init_field(self, "base", base)
        init_field(self, "endpoint", endpoint)  # Boundary or Infinity


class GroupElement(Value):
    __slots__ = ("a", "b", "c", "d", "s")

    # compose builds one per product; Value's generic loop made the subgroup
    # enumeration and the bracket walk slower
    def __init__(self, a: int, b: int, c: int, d: int, s: int):
        init_field(self, "a", a)
        init_field(self, "b", b)
        init_field(self, "c", c)
        init_field(self, "d", d)
        init_field(self, "s", s)  # sqrt(ad - bc) > 0

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


def apply(g: GroupElement, p: Point) -> Point:
    """Extended Mobius action z -> (a z + b)/(c z + d), on the integer entries.

    An interior point z = (xn + i yn)/den moves to
    (u v + a c yn^2 + i s^2 yn den) / (u^2 + w^2), with u = c xn + d den,
    v = a xn + b den and w = c yn, divided by the content of the triple. A
    boundary point n/m, with Infinity as 1/0, moves to
    (a n + b m)/(c n + d m), which is Infinity where c n + d m = 0.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    if isinstance(p, Interior):
        xn, yn, den = p.xn, p.yn, p.den
        u = c * xn + d * den
        w = c * yn
        nx = u * (a * xn + b * den) + w * a * yn
        ny = g.s * g.s * yn * den
        nd = u * u + w * w
        k = math.gcd(nx, ny, nd)
        return _set_triple(Interior.__new__(Interior), nx // k, ny // k, nd // k)
    n, m = (1, 0) if isinstance(p, Infinity) else (p.x.numerator, p.x.denominator)
    den = c * n + d * m
    if den == 0:
        return INFINITY
    return Boundary(Fraction(a * n + b * m, den))


def is_loxodromic(g: GroupElement) -> bool:
    """|trace| > 2 on the det-1 representative, decided exactly; the
    identity, of trace 2, is not loxodromic."""
    return abs(g.trace()) > 2


def hyp_dist(p: Point, q: Point) -> float:
    """Hyperbolic distance 2 asinh sqrt(s2) (stable near 0), where the half
    chordal ratio s2 = sinh^2(d/2) = |p - q|^2 / (4 Im p Im q) is one ratio
    of integers of the two triples, rounded to a float once.

    Where s2 exceeds the float range (d above about 711),
    d = log(4 sinh^2(d/2)) to double precision, taken as the difference of
    the logarithms of the exact integers.
    """
    if not isinstance(p, Interior) or not isinstance(q, Interior):
        raise BoundaryPoint("hyp_dist needs interior points")
    pd, qd = p.den, q.den
    dx = p.xn * qd - q.xn * pd
    dy = p.yn * qd - q.yn * pd
    num, den = dx * dx + dy * dy, 4 * p.yn * q.yn * pd * qd
    # int true division rounds correctly, as float(Fraction) does
    try:
        s2 = num / den
    except OverflowError:
        return math.log(4 * num) - math.log(den)
    return 2.0 * math.asinh(math.sqrt(s2))


def displacement(g: GroupElement) -> float:
    """d(i, g(i)), the distance g moves the base point, from the matrix
    alone: sinh^2(d/2) = ((a - d)^2 + (b + c)^2) / (4 s^2) (Beardon, The
    Geometry of Discrete Groups, 7.2), rounded to a float once.

    This is the ratio that hyp_dist(BASE_POINT, apply(g, BASE_POINT)) forms
    from the triple of g(i), so the float is the same. Past the float range
    the logarithms of the two pairs of integers can differ in the last bit,
    so there the distance is that of hyp_dist.
    """
    a, b, c, d, s = g.a, g.b, g.c, g.d, g.s
    try:
        s2 = ((a - d) ** 2 + (b + c) ** 2) / (4 * s * s)
    except OverflowError:
        return hyp_dist(BASE_POINT, apply(g, BASE_POINT))
    return 2.0 * math.asinh(math.sqrt(s2))


def _sq_norm(xn, yn, den, en, ed):
    """|ed z - en|^2 den^2 at z = (xn + i yn)/den."""
    u = ed * xn - en * den
    w = ed * yn
    return u * u + w * w


def dist_to_ray(p: Point, ray: GeodesicRay) -> float:
    """Distance from an interior point to a geodesic ray.

    Let b be the base, e the endpoint and e' the far endpoint of the ray's
    geodesic, each endpoint a projective pair (n, d) with Infinity = (1, 0).
    The foot of the perpendicular from z lies on the ray iff
    |z - e'| |b - e| >= |b - e'| |z - e|; then the distance to the geodesic
    is given by sinh d = |(x - e)(x - e') + y^2| / (|e - e'| y), the
    |(x - c)^2 + y^2 - r^2| / (2 r y) of a half-plane geodesic of centre c and
    radius r. Otherwise the distance to the base point is returned. The
    test is decided exactly on the integer triples of the points, and the
    distance is one exact rational rounded once (past the float range,
    d = log(2 sinh d) from the exact integers).
    """
    if not isinstance(p, Interior):
        raise BoundaryPoint("dist_to_ray needs an interior point")
    b, e = ray.base, ray.endpoint
    xn, yn, xd = p.xn, p.yn, p.den
    bn, un, bd = b.xn, b.yn, b.den
    en, ed = (1, 0) if isinstance(e, Infinity) else (e.x.numerator, e.x.denominator)
    # far endpoint (|b|^2 - e bx) / (bx - e), both sides times ed bd^2
    fn = ed * (bn * bn + un * un) - en * bn * bd
    fd = bd * (ed * bn - en * bd)
    if _sq_norm(xn, yn, xd, fn, fd) * _sq_norm(bn, un, bd, en, ed) < (
        _sq_norm(bn, un, bd, fn, fd) * _sq_norm(xn, yn, xd, en, ed)
    ):
        return hyp_dist(p, b)
    num = abs((ed * xn - en * xd) * (fd * xn - fn * xd) + ed * fd * yn ** 2)
    den = abs(fn * ed - en * fd) * yn * xd
    try:
        return math.asinh(num / den)
    except OverflowError:  # sinh d beyond the float range: d = log(2 sinh d)
        return math.log(2 * num) - math.log(den)
