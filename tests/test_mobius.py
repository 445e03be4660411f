import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from schottky_limits.mobius import (
    BASE_POINT,
    INFINITY,
    Boundary,
    BoundaryPoint,
    GeodesicRay,
    GroupElement,
    Infinity,
    Interior,
    NonUnitDeterminant,
    apply,
    compose,
    dist_to_ray,
    hyp_dist,
    inverse,
    is_loxodromic,
)

from conftest import interior_points, unit_det_matrices
from oracles import fixed_points, float_hyp_dist, ray_sampler

I = GroupElement.identity()
DIAG = GroupElement.of(2, 0, 0, Fraction(1, 2))


def geodesic_length_oracle(p, q):
    """Independent distance: arc-length antiderivative along the connecting
    geodesic. Vertical lines integrate to |ln(y2/y1)|; semicircles to the
    log-tangent-half-angle difference."""
    px, py, qx, qy = float(p.x), float(p.y), float(q.x), float(q.y)
    if px == qx:
        return abs(math.log(qy / py))
    c = (px * px + py * py - qx * qx - qy * qy) / (2 * (px - qx))
    r = math.hypot(px - c, py)
    phi1 = math.atan2(py, px - c)
    phi2 = math.atan2(qy, qx - c)
    return abs(math.log(math.tan(phi2 / 2) / math.tan(phi1 / 2)))


class TestGroupElement:
    def test_compose_identity(self):
        g = GroupElement.of(3, 1, 2, 1)
        assert compose(g, I) == g
        assert compose(I, g) == g

    def test_compose_inverse_is_identity(self):
        g = GroupElement.of(3, 1, 2, 1)
        assert compose(g, inverse(g)) == I

    def test_diagonal_product(self):
        assert compose(DIAG, DIAG) == GroupElement.of(4, 0, 0, Fraction(1, 4))

    def test_diagonal_inverse(self):
        assert inverse(DIAG) == GroupElement.of(Fraction(1, 2), 0, 0, 2)
        assert inverse(I) == I

    def test_canonical_sign(self):
        assert GroupElement.of(-1, 0, 0, -1) == I
        g = GroupElement.of(Fraction(-5, 3), Fraction(-4, 3), Fraction(-4, 3), Fraction(-5, 3))
        assert g.m11 > 0

    def test_rescaling_to_unit_det(self):
        assert GroupElement.of(4, 0, 0, 1) == GroupElement.of(2, 0, 0, Fraction(1, 2))

    def test_rejects_bad_determinant(self):
        with pytest.raises(NonUnitDeterminant):
            GroupElement.of(1, 0, 0, -1)
        with pytest.raises(NonUnitDeterminant):
            GroupElement.of(2, 0, 0, 1)  # det 2 has no rational sqrt

    @given(unit_det_matrices())
    def test_double_inverse(self, g):
        assert inverse(inverse(g)) == g

    @given(unit_det_matrices(), unit_det_matrices(), unit_det_matrices())
    @settings(max_examples=50)
    def test_associativity(self, g, h, k):
        assert compose(compose(g, h), k) == compose(g, compose(h, k))

    @given(unit_det_matrices())
    def test_det_preserved(self, g):
        assert g.m11 * g.m22 - g.m12 * g.m21 == 1
        gi = inverse(g)
        assert gi.m11 * gi.m22 - gi.m12 * gi.m21 == 1


class TestApply:
    def test_identity_fixes_i(self):
        assert apply(I, BASE_POINT) == BASE_POINT

    def test_diagonal_scales(self):
        assert apply(DIAG, Interior(Fraction(0), Fraction(1))) == Interior(
            Fraction(0), Fraction(4)
        )

    def test_boundary_to_boundary(self):
        assert apply(DIAG, Boundary(Fraction(1))) == Boundary(Fraction(4))
        assert apply(DIAG, INFINITY) is INFINITY

    def test_pole_to_infinity(self):
        g = GroupElement.of(0, -1, 1, 0)  # z -> -1/z
        assert apply(g, Boundary(Fraction(0))) is INFINITY
        assert apply(g, INFINITY) == Boundary(Fraction(0))

    @given(unit_det_matrices(), interior_points())
    def test_round_trip(self, g, p):
        q = apply(g, apply(inverse(g), p))
        assert abs(float(q.x - p.x)) < 1e-12
        assert abs(float(q.y - p.y)) < 1e-12

    @given(unit_det_matrices(), interior_points())
    def test_preserves_upper_half_plane(self, g, p):
        assert apply(g, p).y > 0


class TestIsLoxodromic:
    def test_parabolic(self):
        assert not is_loxodromic(GroupElement.of(1, 1, 0, 1))

    def test_loxodromic(self):
        assert is_loxodromic(DIAG)

    def test_elliptic(self):
        assert not is_loxodromic(GroupElement.of(0, 1, -1, 0))

    def test_identity_not_loxodromic(self):
        assert not is_loxodromic(I)
        assert not is_loxodromic(GroupElement.of(-1, 0, 0, -1))

    @given(unit_det_matrices(), unit_det_matrices())
    @settings(max_examples=60)
    def test_conjugation_invariant(self, g, h):
        conj = compose(compose(h, g), inverse(h))
        assert is_loxodromic(conj) == is_loxodromic(g)

    @given(unit_det_matrices())
    def test_two_fixed_points_exactly_when_loxodromic(self, g):
        # fixed_points takes the discriminant from the entries of the
        # fixed-point quadratic, with c = 0 apart; it reads no trace
        if g.is_identity():
            return
        assert is_loxodromic(g) == (len(fixed_points(g)) == 2)


class TestFixedPoints:
    def test_diagonal(self):
        assert fixed_points(DIAG) == {Boundary(Fraction(0)), INFINITY}

    def test_translation(self):
        assert fixed_points(GroupElement.of(1, 1, 0, 1)) == {INFINITY}

    def test_elliptic_has_none(self):
        assert fixed_points(GroupElement.of(0, 1, -1, 0)) == set()

    def test_residual_on_generator(self, sd):
        for fp in fixed_points(sd.gen_b):
            assert not isinstance(fp, Infinity)
            img = apply(sd.gen_b, Boundary(fp.x))
            assert abs(float(img.x - fp.x)) < 1e-10


class TestHypDist:
    def test_zero_at_same_point(self):
        assert hyp_dist(BASE_POINT, BASE_POINT) == 0.0

    def test_vertical(self):
        d = hyp_dist(Interior(Fraction(0), Fraction(1)), Interior(Fraction(0), Fraction(4)))
        assert d == pytest.approx(math.log(4), abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(BoundaryPoint):
            hyp_dist(BASE_POINT, Boundary(Fraction(0)))

    @given(interior_points(), interior_points())
    @settings(max_examples=100)
    def test_symmetry(self, p, q):
        assert hyp_dist(p, q) == pytest.approx(hyp_dist(q, p), abs=1e-12)

    @given(interior_points(), interior_points(), interior_points())
    @settings(max_examples=100)
    def test_triangle_inequality(self, p, q, r):
        assert hyp_dist(p, r) <= hyp_dist(p, q) + hyp_dist(q, r) + 1e-9

    @given(unit_det_matrices(), interior_points(), interior_points())
    @settings(max_examples=100)
    def test_isometry_invariance(self, g, p, q):
        assert hyp_dist(apply(g, p), apply(g, q)) == pytest.approx(
            hyp_dist(p, q), abs=1e-9
        )

    def test_against_arc_length_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            p = Interior(rng.uniform(-10, 10), rng.uniform(0.05, 20))
            q = Interior(rng.uniform(-10, 10), rng.uniform(0.05, 20))
            assert hyp_dist(p, q) == pytest.approx(
                geodesic_length_oracle(p, q), abs=1e-6
            )


def sampled_ray_min(p, ray, coarse=400):
    """Brute-force minimization of the float half-plane distance over the
    oracle's parameterization of the ray, refined by ternary search (distance
    along a geodesic is convex)."""
    point_at = ray_sampler(ray)
    q = (float(p.x), float(p.y))
    reach = float_hyp_dist((float(ray.base.x), float(ray.base.y)), q) + 1.0

    def f(t):
        return float_hyp_dist(point_at(t), q)

    ts = [reach * k / coarse for k in range(coarse + 1)]
    best = min(range(len(ts)), key=lambda i: f(ts[i]))
    lo = ts[max(0, best - 1)]
    hi = ts[min(len(ts) - 1, best + 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return f((lo + hi) / 2)


class TestDistToRay:
    def test_point_on_ray_is_zero(self):
        ray = GeodesicRay(BASE_POINT, INFINITY)
        assert dist_to_ray(Interior(Fraction(0), Fraction(5)), ray) < 1e-12

    def test_clamps_to_base(self):
        ray = GeodesicRay(Interior(Fraction(0), Fraction(2)), INFINITY)
        d = dist_to_ray(Interior(Fraction(0), Fraction(1)), ray)
        assert d == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(BoundaryPoint):
            dist_to_ray(Boundary(Fraction(0)), GeodesicRay(BASE_POINT, INFINITY))

    def test_against_sampling_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            base = Interior(rng.uniform(-4, 4), rng.uniform(0.2, 4))
            if rng.random() < 0.25:
                endpoint = INFINITY
            else:
                endpoint = Boundary(rng.uniform(-8, 8))
            if isinstance(endpoint, Boundary) and endpoint.x == base.x:
                continue
            ray = GeodesicRay(base, endpoint)
            p = Interior(rng.uniform(-6, 6), rng.uniform(0.1, 6))
            assert dist_to_ray(p, ray) == pytest.approx(
                sampled_ray_min(p, ray), abs=1e-6
            )

    @given(unit_det_matrices(), interior_points())
    @settings(max_examples=40)
    def test_isometry_invariance(self, g, p):
        ray = GeodesicRay(BASE_POINT, Boundary(Fraction(3)))
        moved = GeodesicRay(apply(g, BASE_POINT), apply(g, Boundary(Fraction(3))))
        if isinstance(moved.endpoint, Infinity):
            return
        assert dist_to_ray(apply(g, p), moved) == pytest.approx(
            dist_to_ray(p, ray), abs=1e-9
        )
