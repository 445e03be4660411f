"""The integer arithmetic of GroupElement, apply, hyp_dist and nested_disk,
and the closed-form ray geometry of dist_to_ray, give exactly the rationals
(and bit-identical floats) of the reference formulas in oracles.py; the ray
that render_svg draws follows the reference ray to the canvas resolution,
and each disk circle it draws is the geodesic circle on its footprint."""

import importlib.util
import itertools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schottky_limits import limits, mobius
from schottky_limits.freewords import EMPTY, Word, WordFamily, reduce, theta
from schottky_limits.limits import (
    enumerate_subgroup,
    estimate_limit_point,
    intersect_by_matrices,
    QIEstimate,
    limit_point_brackets,
    orbit_samples,
    qi_check,
    theta_generators,
    theta_intersection,
)
from schottky_limits.mobius import (
    BASE_POINT,
    INFINITY,
    Boundary,
    GeodesicRay,
    GroupElement,
    Interior,
    apply,
    displacement,
    dist_to_ray,
    hyp_dist,
)
from schottky_limits.render import cayley, disk_circle, render_svg, to_canvas
from schottky_limits.schottky import (
    SchottkyData,
    default_generators,
    nested_disk,
    word_to_element,
)

from conftest import interior_points, invoke, rationals, unit_det_matrices, words
from oracles import (
    _mpf,
    frac_disk_chain,
    frac_mobius_interior,
    frac_sinh2_half,
    mp_dist_to_ray,
    mp_hyp_dist,
    ref_apply_exact,
    ref_dist_to_ray,
    ref_foot_on_ray,
    ref_hyp_dist,
    ref_intersect_by_matrices,
    ref_point_along_ray,
    ref_qi_extremes,
)

ROOT = Path(__file__).resolve().parents[1]


def seeded_instance_doc(seed):
    """SchottkyData JSON of a benchmark instance (perfbench/instances.py,
    which uses only the standard library)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py"
    )
    instances = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = instances  # its dataclasses resolve their module
    spec.loader.exec_module(instances)
    return instances.make_instance(seed).doc


def instance(seed):
    """The shipped instance (seed None) or a seeded benchmark instance."""
    if seed is None:
        return default_generators()
    return SchottkyData.from_json_dict(seeded_instance_doc(seed))


def shear_product(shears):
    """A det-1 Fraction matrix as a product of elementary shears."""
    m = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for q, lower in shears:
        h = (1, 0, q, 1) if lower else (1, q, 0, 1)
        m = (
            m[0] * h[0] + m[1] * h[2], m[0] * h[1] + m[1] * h[3],
            m[2] * h[0] + m[3] * h[2], m[2] * h[1] + m[3] * h[3],
        )
    return m


shears = st.lists(
    st.tuples(rationals(max_num=5, max_den=4), st.booleans()), min_size=0, max_size=6
)
nonzero_rationals = rationals().filter(lambda q: q != 0)


class TestGroupElement:
    @given(shears, st.booleans())
    def test_entries_return_det1_input(self, sh, negate):
        m = shear_product(sh)
        if negate:
            m = tuple(-v for v in m)
        first = next(v for v in m if v != 0)
        expected = m if first > 0 else tuple(-v for v in m)
        g = GroupElement.of(*m)
        assert g.entries() == expected
        assert g.trace() == expected[0] + expected[3]

    def test_sign_with_zero_first_entry(self):
        # z -> -1/z: the first nonzero entry is m12
        g = GroupElement.of(0, 1, -1, 0)
        assert GroupElement.of(0, -1, 1, 0) == g
        assert g.entries() == (0, 1, -1, 0)

    @given(unit_det_matrices(), nonzero_rationals)
    def test_projective_scaling(self, g, k):
        assert GroupElement.of(*(k * v for v in g.entries())) == g

    @given(unit_det_matrices())
    def test_primitive_form(self, g):
        assert math.gcd(g.a, g.b, g.c, g.d) == 1
        assert g.s > 0 and g.a * g.d - g.b * g.c == g.s * g.s
        assert g.a > 0 or (g.a == 0 and g.b > 0)


class TestExactAction:
    @given(unit_det_matrices(), interior_points())
    def test_apply_matches_fraction_formula(self, g, p):
        q = apply(g, p)
        assert (q.x, q.y) == frac_mobius_interior(g.entries(), p.x, p.y)
        assert type(q.x) is Fraction and type(q.y) is Fraction

    @given(unit_det_matrices(), interior_points(), interior_points())
    def test_hyp_dist_bit_equal(self, g, p, q):
        # g(q) carries the larger numerators of real orbit points
        for r in (q, apply(g, q)):
            s2 = frac_sinh2_half((p.x, p.y), (r.x, r.y))
            assert hyp_dist(p, r) == 2 * math.asinh(math.sqrt(float(s2)))


class TestNestedDisk:
    @given(words(max_len=12))
    @settings(max_examples=60, deadline=None)
    def test_single_image_equals_letter_chain(self, w):
        sd = default_generators()
        w = reduce(w)
        assume(len(w) > 0)
        mats = [sd.generator(*let).entries() for let in w.letters[:-1]]
        lo, hi = frac_disk_chain(mats, *sd.target_disk(*w.letters[-1]).interval())
        assert nested_disk(w, sd).interval() == (lo, hi)

    @pytest.mark.parametrize("n_max", [1, 2, 12])
    @pytest.mark.parametrize("seed", [None, 3])
    def test_prefix_walk_equals_full_words(self, seed, n_max):
        """The one-prefix walk of the brackets and the orbit gives the disks
        and points of theta_1..theta_n_max built from scratch."""
        sd = instance(seed)
        fam = WordFamily(max_index=n_max)
        thetas = [theta(n, fam) for n in range(1, n_max + 1)]
        brackets, orbit = limit_point_brackets(sd, n_max)
        assert brackets == [nested_disk(w, sd).interval() for w in thetas]
        assert orbit == [apply(word_to_element(w, sd), BASE_POINT) for w in thetas]


class TestIntersectByMatrices:
    @pytest.mark.parametrize("seed", [None, 2, 3, 11])
    @pytest.mark.parametrize("max_index, max_syllables", [(4, 2), (6, 3)])
    def test_trie_walk_equals_letter_by_letter(self, seed, max_index, max_syllables):
        """The matrices built down the trie of symbol words, each product's
        parent times one factor, are each normal form's matrix built letter
        by letter, and give the intersection that those give."""
        sd = instance(seed)
        odd, even = theta_generators(WordFamily(max_index=max_index))
        g1 = enumerate_subgroup(odd, max_syllables, sd)
        g2 = enumerate_subgroup(even, max_syllables, sd)
        got = intersect_by_matrices(g1, g2)
        assert got == ref_intersect_by_matrices(g1, g2, sd) == {EMPTY}
        for g in (g1, g2):
            assert g == {w: word_to_element(w, sd) for w in g}

    @pytest.mark.parametrize("seed", [None, 11])
    def test_nontrivial_intersection(self, seed):
        sd = instance(seed)
        odd, _ = theta_generators(WordFamily(max_index=6))
        cyclic = [theta(3)]
        g1, g2 = enumerate_subgroup(odd, 3, sd), enumerate_subgroup(cyclic, 3, sd)
        got = intersect_by_matrices(g1, g2)
        assert got == ref_intersect_by_matrices(g1, g2, sd) == (g1.keys() & g2.keys()) == set(g2)
        assert len(got) == 7

    def test_empty_sets(self, sd):
        with pytest.raises(ValueError):
            enumerate_subgroup([], 2, sd)

    def test_join_dropping_letters_fails_the_verdict(self, monkeypatch):
        """A normal-form join that drops letters reduces every product of
        two or more factors to e. Its matrix then replaces the identity's,
        so the cross-check disagrees and the intersection is not verified."""
        monkeypatch.setattr(limits, "_join", lambda left, right: ())
        meet = theta_intersection(default_generators(), 6, 3)
        assert meet.cross_check_agrees is False
        assert meet.verified is False
        assert invoke(["intersect", "--max-index", "4", "--max-syllables", "2"]).exit_code == 1


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 7])
    def test_bytes_round_trip(self, seed):
        sd = instance(seed)
        text = sd.to_json()
        again = SchottkyData.from_json(text)
        assert again == sd
        assert again.to_json() == text


def finite_rays():
    return st.builds(
        lambda b, x: GeodesicRay(b, Boundary(x)), interior_points(), rationals()
    ).filter(lambda r: r.base.x != r.endpoint.x)


def up_rays():
    return st.builds(lambda b: GeodesicRay(b, INFINITY), interior_points())


def down_rays():
    return st.builds(lambda b: GeodesicRay(b, Boundary(b.x)), interior_points())


RAY_KINDS = {"finite": finite_rays, "infinity": up_rays, "vertical-down": down_rays}
#: a few rays of each kind, around which a grid of points falls on both
#: sides of the foot test
GRID_BASES = [Interior(Fraction(1, 3), Fraction(2)), Interior(Fraction(-2), Fraction(1, 2))]
GRID_RAYS = {
    "finite": [GeodesicRay(b, Boundary(Fraction(e))) for b in GRID_BASES for e in ("5/2", "-7/3")],
    "infinity": [GeodesicRay(b, INFINITY) for b in GRID_BASES],
    "vertical-down": [GeodesicRay(b, Boundary(b.x)) for b in GRID_BASES],
}
#: the ray parameters of render_svg
RENDER_TS = [12.0 * k / 128 for k in range(129)]


class TestRayGeometry:
    @pytest.mark.parametrize("kind", sorted(RAY_KINDS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_dist_to_ray_equals_standard_position(self, kind, data):
        ray = data.draw(RAY_KINDS[kind]())
        p = data.draw(interior_points())
        assert dist_to_ray(p, ray) == ref_dist_to_ray(p, ray)

    @pytest.mark.parametrize("kind", sorted(GRID_RAYS))
    def test_dist_to_ray_both_sides_of_foot(self, kind):
        sides = set()
        for ray in GRID_RAYS[kind]:
            for xn in range(-12, 13):
                for yn in (1, 3, 8, 20):
                    p = Interior(Fraction(xn, 3), Fraction(yn, 4))
                    sides.add(ref_foot_on_ray(p, ray))
                    assert dist_to_ray(p, ray) == ref_dist_to_ray(p, ray)
        assert sides == {True, False}

    @pytest.mark.parametrize("seed", [None, 3])
    def test_deep_instance(self, seed):
        """The orbit points of construct and the ray of render at n = 24:
        each point of render_svg's ray path is the reference point at its
        distance, mapped to the canvas, to the canvas resolution of 0.001."""
        sd = instance(seed)
        brackets, orbit = limit_point_brackets(sd, 24)
        eta = estimate_limit_point(brackets, 1e-10)
        ray = GeodesicRay(BASE_POINT, eta)
        assert len(orbit) == 24
        for p in orbit:
            assert dist_to_ray(p, ray) == ref_dist_to_ray(p, ray)
        path = re.search(r'<path class="ray" d="M ([^"]*)"', render_svg(sd, brackets, orbit, eta))
        drawn = [tuple(map(float, xy.split())) for xy in path.group(1).split(" L ")]
        assert len(drawn) == len(RENDER_TS)
        for (x, y), t in zip(drawn, RENDER_TS):
            rx, ry = to_canvas(cayley(complex(*ref_point_along_ray(ray, t))))
            assert abs(x - rx) <= 1e-3 and abs(y - ry) <= 1e-3


class TestDiskCircle:
    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 11])
    def test_geodesic_circle_through_footprint(self, seed):
        """Each drawn disk circle, of the Schottky circles and of the
        brackets up to n = 24, is orthogonal to the unit circle and passes
        through the Cayley images of the footprint's ends and top point."""
        sd = instance(seed)
        footprints = [c.interval() for c in sd.circles()] + limit_point_brackets(sd, 24)[0]
        for lo, hi in footprints:
            ux, uy, r = disk_circle(lo, hi)
            c = complex(ux, uy)
            assert abs(c) ** 2 - r * r == pytest.approx(1, abs=1e-9)
            top = complex(float((lo + hi) / 2), float((hi - lo) / 2))
            for z in (complex(float(lo)), complex(float(hi)), top):
                assert abs(cayley(z) - c) == pytest.approx(r, abs=1e-9)


def mp_distance(p, q):
    """The hyperbolic distance of two exact points, with 50 digits beyond
    those of their coordinates' denominators."""
    coords = (p.x, p.y, q.x, q.y)
    with mpmath.workdps(50 + max(v.denominator for v in coords).bit_length() * 3 // 10):
        return float(mp_hyp_dist((_mpf(p.x), _mpf(p.y)), (_mpf(q.x), _mpf(q.y))))


def outcome(f, *args):
    """f(*args), or the type of the OverflowError it raises."""
    try:
        return f(*args)
    except OverflowError as exc:
        return type(exc)


class TestIntegerTriplePoints:
    """Exact points stored as integer triples give exactly the Fractions and
    floats of the Fraction-numerator action and distance they replaced."""

    def test_orbit_samples(self, sd):
        samples = list(orbit_samples(sd, 8))
        assert len(samples) == 13121
        for s in samples:
            assert (s.point.x, s.point.y) == ref_apply_exact(s.element, BASE_POINT)
            assert s.displacement == ref_hyp_dist(BASE_POINT, s.point)

    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_deep_theta_orbit(self, seed):
        sd = instance(seed)
        fam = WordFamily(max_index=24)
        brackets, orbit = limit_point_brackets(sd, 24)
        ray = GeodesicRay(BASE_POINT, estimate_limit_point(brackets, 1e-10))
        for n, p in enumerate(orbit, 1):
            assert (p.x, p.y) == ref_apply_exact(word_to_element(theta(n, fam), sd), BASE_POINT)
            # from n = 16, sinh^2(d/2) exceeds the float range and the
            # reference formula overflows; there d is checked against mpmath
            expected = outcome(ref_hyp_dist, BASE_POINT, p)
            assert (expected is OverflowError) == (n >= 16)
            if n < 16:
                assert hyp_dist(BASE_POINT, p) == expected
            else:
                assert hyp_dist(BASE_POINT, p) == pytest.approx(mp_distance(BASE_POINT, p), rel=1e-12)
            assert dist_to_ray(p, ray) == ref_dist_to_ray(p, ray)

    def test_distances_past_the_float_range(self, sd):
        # theta_40(i) lies at d ~ 3950, where sinh^2(d/2) ~ 10^1715
        _, orbit = limit_point_brackets(sd, 40)
        for p in orbit[15:]:
            assert hyp_dist(BASE_POINT, p) == pytest.approx(mp_distance(BASE_POINT, p), rel=1e-12)
            assert hyp_dist(p, BASE_POINT) == hyp_dist(BASE_POINT, p)
        assert hyp_dist(orbit[39], orbit[38]) == pytest.approx(mp_distance(orbit[39], orbit[38]),
                                                               rel=1e-12)
        # a foot on the ray [i, 0) with sinh d = 10^400 / 2
        far = Interior(Fraction(1, 2), Fraction(1, 10**400))
        ray = GeodesicRay(BASE_POINT, Boundary(Fraction(0)))
        with mpmath.workdps(50):
            expected = float(mpmath.asinh(mpmath.mpf(10) ** 400 / 2))
        assert dist_to_ray(far, ray) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("base", GRID_BASES, ids=str)
    def test_points_other_than_i(self, sd, base):
        for s in orbit_samples(sd, 4):
            q = apply(s.element, base)
            assert (q.x, q.y) == ref_apply_exact(s.element, base)
            assert hyp_dist(base, q) == ref_hyp_dist(base, q)
            assert hyp_dist(q, s.point) == ref_hyp_dist(q, s.point)

    @given(unit_det_matrices(), interior_points())
    def test_apply_primitive_triple(self, g, p):
        q = apply(g, p)
        assert (q.x, q.y) == ref_apply_exact(g, p)
        assert q.den > 0 and q.yn > 0 and math.gcd(q.xn, q.yn, q.den) == 1

    def test_triple_of_fractions(self):
        p = Interior(Fraction(1, 6), Fraction(3, 4))
        assert (p.xn, p.yn, p.den) == (2, 9, 12)
        assert (p.x, p.y) == (Fraction(1, 6), Fraction(3, 4))
        # a float is read at its exact binary value
        p = Interior(0.5, 2.0)
        assert p == Interior(Fraction(1, 2), Fraction(2))
        assert (p.xn, p.yn, p.den) == (1, 4, 2)
        for bad in (math.inf, -math.inf, math.nan):
            for build in (lambda: Interior(bad, 1.0), lambda: Interior(0.0, bad),
                          lambda: Boundary(bad)):
                with pytest.raises(ValueError):
                    build()

    def test_float_base_and_deep_point(self, sd):
        # theta_40(i) lies within 10^-1700 of the boundary: its distances to
        # points given in floats are finite and match mpmath
        p = limit_point_brackets(sd, 40)[1][39]
        base = Interior(0.5, 2.0)
        d = hyp_dist(base, p)
        assert math.isfinite(d) and d == pytest.approx(mp_distance(base, p), rel=1e-12)
        ray = GeodesicRay(base, Boundary(7.4))
        d = dist_to_ray(p, ray)
        assert math.isfinite(d) and d == pytest.approx(mp_dist_to_ray(p, ray), rel=1e-12)

    @given(interior_points(), interior_points())
    def test_hyp_dist_mixed_exact_and_float(self, p, q):
        pf, qf = Interior(float(p.x), float(p.y)), Interior(float(q.x), float(q.y))
        half = Interior(float(p.x), p.y)  # each float is read at its exact value
        for a, b in ((p, q), (pf, q), (p, qf), (pf, qf), (half, q), (q, half)):
            assert hyp_dist(a, b) == ref_hyp_dist(a, b)


class TestDisplacement:
    """displacement(g) reads d(i, g(i)) off the matrix: the float of
    hyp_dist(i, g(i)), bit for bit, with no image point built."""

    def test_orbit_samples(self, sd):
        for s in orbit_samples(sd, 8):
            assert displacement(s.element) == s.displacement

    @pytest.mark.parametrize("seed", range(1, 12))
    def test_seeded_instances(self, seed):
        for s in orbit_samples(instance(seed), 6):
            assert displacement(s.element) == s.displacement

    @pytest.mark.parametrize("n", [10, 16, 30, 40])
    def test_theta_past_the_float_range(self, sd, n):
        g = word_to_element(theta(n, WordFamily(max_index=n)), sd)
        assert displacement(g) == hyp_dist(BASE_POINT, apply(g, BASE_POINT))
        # from n = 16 the matrix ratio sinh^2(d/2) exceeds the float range,
        # and the logarithm branch is taken
        ratio = outcome(lambda: ((g.a - g.d) ** 2 + (g.b + g.c) ** 2) / (4 * g.s * g.s))
        assert (ratio is OverflowError) == (n >= 16)

    @given(unit_det_matrices(), nonzero_rationals)
    def test_random_matrices(self, g, k):
        # k g is the same element: the entries of GroupElement.of are projective
        h = GroupElement.of(*(k * v for v in g.entries()))
        assert h == g
        x, y = ref_apply_exact(g, BASE_POINT)
        expected = ref_hyp_dist(BASE_POINT, Interior(x, y))
        assert displacement(h) == hyp_dist(BASE_POINT, apply(g, BASE_POINT)) == expected


def brute_force_qi(sd, max_length, extremes):
    """The QIEstimate of the extremes of ref_qi_extremes up to max_length."""
    lows = [extremes[n][0] for n in range(1, max_length + 1)]
    highs = [extremes[n][1] for n in range(1, max_length + 1)]
    return QIEstimate(min(lows, default=math.inf), 0.0, max(highs, default=0.0), 0.0, max_length)


class TestQiCheck:
    """qi_check gives, as exact floats, the least and greatest displacement
    per letter over a brute-force enumeration of the reduced words."""

    def test_shipped(self, sd):
        extremes = ref_qi_extremes(sd, 8)
        for max_length in range(9):
            assert qi_check(sd, max_length) == brute_force_qi(sd, max_length, extremes)
        assert qi_check(sd, 0) == QIEstimate(math.inf, 0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("seed", range(1, 12))
    def test_seeded_instances(self, seed):
        sd = instance(seed)
        assert qi_check(sd, 6) == brute_force_qi(sd, 6, ref_qi_extremes(sd, 6))

    def test_generator_squared(self, sd):
        # gen_b = gen_a^2: the words (gen_a)^n and gen_b^n move i along one
        # axis, the equality case of the triangle inequality
        sq = SchottkyData(sd.gen_a, sd.gen_a * sd.gen_a, *sd.circles())
        assert qi_check(sq, 6) == brute_force_qi(sq, 6, ref_qi_extremes(sq, 6))

    def test_upper_slope_is_the_generators(self, sd):
        # h = diag(k, 1/k) conjugated to the axis from -1 to 1, through i:
        # h^n(i) lies at n d(i, h(i)) exactly, but the float of a power's
        # displacement over n may round one ulp above that of h
        k = 7 ** 9
        e, f = Fraction(k * k + 1, 2 * k), Fraction(k * k - 1, 2 * k)
        h = GroupElement.of(e, f, f, e)
        along = SchottkyData(h, sd.gen_b, *sd.circles())
        upper = displacement(h)
        assert qi_check(along, 5).upper_alpha == upper
        fitted = max(high for _, high in ref_qi_extremes(along, 5).values())
        assert upper <= fitted <= math.nextafter(upper, math.inf)


def brute_force_lower(sd, max_length):
    """The least displacement(word_to_element(w)) / |w| over every reduced
    word w of 1..max_length letters, each element built letter by letter."""
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    return min(
        (
            displacement(word_to_element(Word(w), sd)) / n
            for n in range(1, max_length + 1)
            for w in itertools.product(letters, repeat=n)
            if Word(w).is_reduced()
        ),
        default=math.inf,
    )


def axis_conjugate(k):
    """diag(k, 1/k) conjugated to the axis from -1 to 1, through i: it moves
    i by 2 log k."""
    e, f = Fraction(k * k + 1, 2 * k), Fraction(k * k - 1, 2 * k)
    return GroupElement.of(e, f, f, e)


class TestHalfLengthPairing:
    """The lower slope of qi_check pairs half-length words by their Gram
    matrices: the same floats as the per-word displacement, past the float
    range too, and no product element built."""

    @pytest.mark.parametrize("second", ["gen_b", "rotated"])
    def test_past_the_float_range(self, sd, second):
        # h moves i by 1040 log 2 > 711, so its ratio sinh^2(d/2) is past the
        # float range. With gen_b, 46 of the 52 words up to length 3 are
        # past it and left out; with the conjugate of h by a rotation about
        # i, all 52 are, and each length's slope comes from displacement
        h = axis_conjugate(2 ** 520)
        assert displacement(h) > 711
        ratio = lambda: ((h.a - h.d) ** 2 + (h.b + h.c) ** 2) / (4 * h.s * h.s)
        assert outcome(ratio) is OverflowError
        r = GroupElement.of(3, 4, -4, 3)
        g = sd.gen_b if second == "gen_b" else r * h * r.inverse()
        along = SchottkyData(h, g, *sd.circles())
        for max_length in range(4):
            assert qi_check(along, max_length).lower_alpha == brute_force_lower(along, max_length)

    @settings(max_examples=40, deadline=None)
    @given(unit_det_matrices(), unit_det_matrices())
    @example(g=GroupElement.identity(), h=GroupElement.of(10, 3, 3, 9))
    def test_unequal_determinants(self, sd, g, h):
        # the primitive integer matrices of g and h have different
        # determinants, so D_u D_v varies among the words of one length.
        # The upper slope is the generators' displacement; where a power
        # moves i along the generator's axis (a symmetric h above), the
        # float of its displacement over n may round one ulp above it, as in
        # test_upper_slope_is_the_generators
        assume(g.s != h.s)
        pair = SchottkyData(g, h, *sd.circles())
        expected = brute_force_qi(pair, 4, ref_qi_extremes(pair, 4))
        upper = max(displacement(g), displacement(h))
        assert qi_check(pair, 4) == QIEstimate(expected.lower_alpha, 0.0, upper, 0.0, 4)
        assert upper <= expected.upper_alpha <= math.nextafter(upper, math.inf)

    def test_no_element_per_word(self, sd, monkeypatch):
        calls = []
        compose = mobius.compose

        def counted(g, h):
            calls.append(1)
            return compose(g, h)

        monkeypatch.setattr(mobius, "compose", counted)
        sd.gen_a * sd.gen_b
        assert len(calls) == 1
        qi_check(sd, 8)
        assert len(calls) == 1
