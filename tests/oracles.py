"""Reference implementations the tests compare the package against.

- A high-precision sampling oracle for ray distances. It is independent of
  the production closed form: the ray is parameterized directly on its
  semicircle (angle inverted from hyperbolic arc length) and the distance is
  minimized by dense sampling plus ternary refinement. mpmath precision is
  needed because deep orbit points sit within 1e-100 of the boundary, far
  below float resolution.
- Exact Fraction formulas for the integer arithmetic of the package.
- The exact Mobius action and hyperbolic distance on Fraction numerators
  and denominators, which the integer-triple points of mobius.Interior
  replaced.
- The standard-position ray geometry that the closed form of
  mobius.dist_to_ray replaced, the point at a distance along a ray that the
  ray of render.render_svg is checked against, and the distance to a ray in
  mpmath from the exact standard position.
- A float sampler of a ray, one standard-position frame per ray, and the
  float half-plane distance: the sampling oracle of dist_to_ray measures
  with these, never with the package's points or distance.
- Boundary fixed points of a group element.
- The letter-by-letter free-generation verifier, which walks every symbol
  word: it expands and reduces each one from scratch and checks every pair
  where it occurs. freewords.verify_free_generation walks no word one by
  one: it counts the words and pairs in closed form, checks each
  sign-change pair once, and finds the least empty word by pairing symbol
  words of half the syllable bound.
- The extreme displacements per letter of all reduced words up to a
  length, by brute force over every word, for limits.qi_check, which reads
  the upper slope off the generators and, for the lower, pairs the words of
  half the length by their Gram matrices (u^T u and v v^T, whose Frobenius
  product is |u v|^2), never building a word's point or element.
- The matrix cross-check of the subgroup intersection with each normal
  form's matrix built letter by letter. limits.intersect_by_matrices
  builds each product's matrix from its parent's and one factor's instead,
  never from a normal form.
- JSON Schemas of the construction report and of the SchottkyData input
  document: the input shape check of SchottkyData.from_json_dict must
  accept exactly the documents SCHOTTKY_SCHEMA accepts.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import mpmath

from schottky_limits.freewords import (
    PrefixFreeViolated,
    SymbolWord,
    VerificationReport,
    _outer_letters_survive,
    expand,
    is_prefix_free,
    reverse,
)
from schottky_limits.mobius import (
    INFINITY,
    Boundary,
    Infinity,
    hyp_dist,
    is_loxodromic,
)
from schottky_limits.schottky import word_to_element


#: An exact point (x, y) of the half-plane, with Fraction coordinates.
_Point = namedtuple("_Point", "x y")


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


# -- the Fraction-numerator action and distance that integer triples replaced --


def ref_apply_exact(g, p):
    """g(x + iy) for Fraction x = xn/xd, y = yn/yd, as the pair of Fractions:
    with u = c x + d and v = a x + b, the image is (u v + a c y^2, s^2 y) /
    (u^2 + c^2 y^2) in the integer entries; scaling by (xd yd)^2 leaves one
    integer ratio per coordinate."""
    a, b, c, d = g.a, g.b, g.c, g.d
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    u = (c * xn + d * xd) * yd  # u xd yd
    w = c * xd * yn  # c y xd yd
    den = u * u + w * w
    nx = u * (a * xn + b * xd) * yd + w * a * xd * yn
    ny = g.s * g.s * xd * xd * yn * yd
    return Fraction(nx, den), Fraction(ny, den)


def ref_hyp_dist(p, q):
    """2 asinh of the half chordal ratio, from each coordinate's own numerator
    and denominator."""
    px, py, qx, qy = p.x, p.y, q.x, q.y
    xd, yd = px.denominator * qx.denominator, py.denominator * qy.denominator
    dx = (px.numerator * qx.denominator - qx.numerator * px.denominator) * yd
    dy = (py.numerator * qy.denominator - qy.numerator * py.denominator) * xd
    s2 = (dx * dx + dy * dy) / (4 * py.numerator * qy.numerator * yd * xd * xd)
    return 2.0 * math.asinh(math.sqrt(s2))


# -- the standard-position ray geometry that the closed forms replaced --------
#
# Each ray is moved onto the upward imaginary axis by an exact matrix and the
# point is moved with it; mobius.dist_to_ray must give exactly these floats,
# and the ray that render.render_svg draws must follow these points to the
# canvas resolution.


def std_position(ray):
    """Matrix (positive determinant, in the ray's number type) sending the
    ray's endpoint to Infinity and the far endpoint of its geodesic to 0."""
    bx, by = ray.base.x, ray.base.y
    one = bx - bx + 1
    if isinstance(ray.endpoint, Infinity):
        return (one, -bx, 0 * one, one)
    ex = ray.endpoint.x
    if bx == ex:
        return (0 * one, -one, one, -ex)
    c = (bx * bx + by * by - ex * ex) / (2 * (bx - ex))
    e2 = 2 * c - ex
    if e2 > ex:
        return (one, -e2, one, -ex)
    return (-one, e2, one, -ex)


def matrix_apply(m, x, y):
    """(a z + b)/(c z + d) at z = x + iy for an entry tuple of any positive
    determinant, in the entries' and coordinates' own arithmetic."""
    a, b, c, d = m
    den = (c * x + d) ** 2 + (c * y) ** 2
    nx = (a * x + b) * (c * x + d) + a * c * y * y
    return nx / den, (a * d - b * c) * y / den


def ref_foot_on_ray(p, ray):
    """Whether the foot of the perpendicular from p, at height |z| in
    standard position, lies on the ray."""
    g = std_position(ray)
    qx, qy = matrix_apply(g, p.x, p.y)
    _, base_y = matrix_apply(g, ray.base.x, ray.base.y)
    return qx * qx + qy * qy >= base_y * base_y


def ref_dist_to_ray(p, ray):
    """asinh(|x|/y) of the point in standard position when the foot is on
    the ray, else hyp_dist to the base."""
    if ref_foot_on_ray(p, ray):
        qx, qy = matrix_apply(std_position(ray), p.x, p.y)
        return math.asinh(abs(float(qx / qy)))
    return hyp_dist(p, ray.base)


def mp_dist_to_ray(p, ray, dps=50):
    """asinh(|x|/y) in mpmath at dps digits, for the point moved exactly into
    standard position, when the foot is on the ray; else the mpmath distance
    to the base, which needs dps beyond the digits of the points'
    denominators."""
    with mpmath.workdps(dps):
        if ref_foot_on_ray(p, ray):
            qx, qy = matrix_apply(std_position(ray), p.x, p.y)
            return float(mpmath.asinh(_mpf(abs(qx / qy))))
        b = ray.base
        return float(mp_hyp_dist((_mpf(p.x), _mpf(p.y)), (_mpf(b.x), _mpf(b.y))))


def ref_point_along_ray(ray, t):
    """The point at height h e^t on the imaginary axis, h the standard-position
    base height, moved back by the adjugate of the standard-position matrix."""
    g = std_position(ray)
    _, base_y = matrix_apply(g, ray.base.x, ray.base.y)
    a, b, c, d = g
    return matrix_apply((d, -b, -c, a), 0.0, float(base_y) * math.exp(t))


def ray_sampler(ray):
    """t -> the float point (x, y) at distance t from the base along the ray.

    The frame is built once per ray, in floats: the adjugate of
    std_position(ray) and the standard-position base height h. Each sample is
    one float matrix_apply to 0 + i h e^t.
    """
    a, b, c, d = (float(v) for v in std_position(ray))
    _, h = matrix_apply((a, b, c, d), float(ray.base.x), float(ray.base.y))
    back = (d, -b, -c, a)
    return lambda t: matrix_apply(back, 0.0, h * math.exp(t))


def float_hyp_dist(p, q):
    """Half-plane distance of float points (x, y): 2 asinh of half the
    Euclidean distance over the geometric mean of the heights."""
    chord = math.hypot(p[0] - q[0], p[1] - q[1])
    return 2.0 * math.asinh(chord / (2.0 * math.sqrt(p[1] * q[1])))


# -- fixed points, kept as references for the limit-point tests --------------


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def fixed_points(g):
    """Boundary fixed points: 2 for loxodromic, 1 for parabolic, 0 for elliptic.

    Solutions of m21 z^2 + (m22 - m11) z - m12 = 0 on the extended real line.
    Exact when the discriminant is a rational square, floats otherwise.
    """
    if g.is_identity():
        raise ValueError("identity fixes everything")
    if g.m21 == 0:
        pts = [INFINITY]
        if g.m11 != g.m22:
            pts.append(Boundary(g.m12 / (g.m22 - g.m11)))
        return set(pts)
    # the quadratic's own discriminant, from the entries, not the trace
    disc = (g.m22 - g.m11) ** 2 + 4 * g.m12 * g.m21
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


def attracting_fixed_point(g):
    """The attracting boundary fixed point of a loxodromic element."""
    if not is_loxodromic(g):
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


def symbol_words(max_index, max_syllables):
    """All nonempty reduced symbol words, lexicographic by (length, sequence)."""
    alphabet = [(n, e) for n in range(1, max_index + 1) for e in (1, -1)]
    alphabet.sort()

    def extend(prefix):
        for s in alphabet:
            if prefix and prefix[-1][0] == s[0] and prefix[-1][1] == -s[1]:
                continue
            yield prefix + [s]

    level = [[]]
    for _ in range(max_syllables):
        nxt = []
        for p in level:
            for q in extend(p):
                nxt.append(q)
                yield SymbolWord(tuple(q))
        level = nxt


def ref_verify_free_generation(fam, max_syllables):
    """Every symbol word expanded and reduced from scratch, every adjacent
    sign-change pair reduced where it occurs."""
    if not is_prefix_free(fam):
        raise PrefixFreeViolated(
            f"family is not prefix-free up to index {fam.max_index}"
        )
    words = pairs = 0
    all_nonempty = outer_letters_ok = True
    counterexample = None
    for sw in symbol_words(fam.max_index, max_syllables):
        words += 1
        if len(expand(sw, fam)) == 0:
            all_nonempty = False
            if counterexample is None:
                counterexample = sw.to_string()
        for (n1, e1), (n2, e2) in zip(sw.syllables, sw.syllables[1:]):
            if e1 == 1 and e2 == -1:
                left = reverse(fam.word(n1))
                right = reverse(fam.word(n2)).inverse()
            elif e1 == -1 and e2 == 1:
                left = fam.word(n1).inverse()
                right = fam.word(n2)
            else:
                continue
            pairs += 1
            if not _outer_letters_survive(left, right):
                outer_letters_ok = False
                if counterexample is None:
                    counterexample = sw.to_string()
    return VerificationReport(fam.max_index, max_syllables, words, pairs,
                              all_nonempty, outer_letters_ok, counterexample)


def ref_intersect_by_matrices(g1, g2, sd):
    """Each word's matrix built anew, letter by letter."""
    in_g1 = {word_to_element(w, sd) for w in g1}
    return {w for w in g2 if word_to_element(w, sd) in in_g1}


def ref_qi_extremes(sd, max_length):
    """The least and greatest displacement per letter, ref_hyp_dist(i, w(i))
    / n, over the reduced words w of each length n = 1..max_length, as a dict
    n -> (least, greatest).

    Every word over a, A, b, B of length n is listed by itertools.product and
    the reduced ones kept; w(i) is the letters' det-1 Fraction matrices
    applied to i one at a time from the right, the point of each suffix
    computed once. The inverses are the adjugates of those matrices.
    """
    a, b = sd.gen_a.entries(), sd.gen_b.entries()
    mats = {("a", 1): a, ("a", -1): (a[3], -a[1], -a[2], a[0]),
            ("b", 1): b, ("b", -1): (b[3], -b[1], -b[2], b[0])}
    base = _Point(Fraction(0), Fraction(1))
    points = {(): base}
    extremes = {}
    for n in range(1, max_length + 1):
        ratios = []
        for w in itertools.product(mats, repeat=n):
            if any(x[0] == y[0] and x[1] == -y[1] for x, y in zip(w, w[1:])):
                continue
            points[w] = p = _Point(*frac_mobius_interior(mats[w[0]], *points[w[1:]]))
            ratios.append(ref_hyp_dist(base, p) / n)
        extremes[n] = (min(ratios), max(ratios))
    return extremes


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ConstructionReport",
    "type": "object",
    "required": ["certificate"],
    "properties": {
        "certificate": {
            "type": "object",
            "required": ["status"],
            "properties": {
                "status": {"enum": ["certified", "violation"]},
                "checks": {"type": "array", "items": {"type": "string"}},
                "name": {"type": "string"},
                "detail": {"type": "string"},
            },
        },
        "free_generation": {
            "type": "object",
            "required": ["verified", "words_checked", "pairs_checked", "note"],
            "properties": {
                "verified": {"type": "boolean"},
                "words_checked": {"type": "integer"},
                "pairs_checked": {"type": "integer"},
                "counterexample": {"type": ["string", "null"]},
                "note": {"type": "string"},
            },
        },
        "eta": {"type": "string"},
        "constant_c": {"type": "string"},
        "per_n": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "distance"],
                "properties": {
                    "n": {"type": "integer"},
                    "distance": {"type": "string"},
                },
            },
        },
        "radial_bounded_trend": {"type": "boolean"},
        "qi": {
            "type": "object",
            "required": ["alphas", "betas", "max_length"],
            "properties": {
                "alphas": {
                    "type": "object",
                    "required": ["lower", "upper"],
                },
                "betas": {
                    "type": "object",
                    "required": ["lower", "upper"],
                },
                "max_length": {"type": "integer"},
            },
        },
        "intersection": {"type": "array", "items": {"type": "string"}},
        "subgroup_sizes": {"type": "object"},
    },
}

RATIONAL_SCHEMA = {"type": "string", "maxLength": 200, "pattern": r"^\s*[^eE_\s]*\s*$"}

SCHOTTKY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "SchottkyData",
    "type": "object",
    "required": ["gen_a", "gen_b", "circles"],
    "properties": {
        "gen_a": {
            "type": "array",
            "items": RATIONAL_SCHEMA,
            "minItems": 4,
            "maxItems": 4,
        },
        "gen_b": {
            "type": "array",
            "items": RATIONAL_SCHEMA,
            "minItems": 4,
            "maxItems": 4,
        },
        "circles": {
            "type": "object",
            "required": ["C_a", "C_a_prime", "C_b", "C_b_prime"],
            "additionalProperties": {
                "type": "object",
                "required": ["center", "radius"],
                "properties": {
                    "center": RATIONAL_SCHEMA,
                    "radius": RATIONAL_SCHEMA,
                },
            },
        },
    },
}
