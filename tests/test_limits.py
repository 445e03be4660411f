import math
from fractions import Fraction

import pytest

from schottky_limits.freewords import EMPTY, Word, theta
from schottky_limits.limits import (
    ToleranceNotReached,
    enumerate_subgroup,
    estimate_limit_point,
    intersect_by_matrices,
    limit_point_brackets,
    orbit_samples,
    qi_check,
    radial_check,
)
from schottky_limits.mobius import (
    BASE_POINT,
    Boundary,
    GroupElement,
    Interior,
    apply,
    hyp_dist,
)
from schottky_limits.schottky import word_to_element


@pytest.fixture(scope="module")
def walk12(sd):
    """The brackets and the orbit points of theta_1..theta_12."""
    return limit_point_brackets(sd, 12)


@pytest.fixture(scope="module")
def eta(walk12):
    return estimate_limit_point(walk12[0], 1e-10)


class TestOrbitSamples:
    def test_counts(self, sd):
        total = sum(1 for _ in orbit_samples(sd, 4))
        assert total == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 5))

    def test_all_words_reduced_and_distinct(self, sd):
        seen = set()
        for s in orbit_samples(sd, 5):
            assert s.word.is_reduced()
            assert s.word not in seen
            seen.add(s.word)

    def test_depth_first_order(self, sd):
        order = [s.word.to_string() for s in orbit_samples(sd, 2)]
        assert order[:8] == ["e", "a", "aa", "ab", "aB", "A", "AA", "Ab"]
        assert order[-4:] == ["B", "Ba", "BA", "BB"]
        assert len(order) == 17

    def test_normal_form_faithful(self, sd):
        elements = {}
        for s in orbit_samples(sd, 5):
            assert s.element not in elements, (s.word, elements[s.element])
            elements[s.element] = s.word


class TestQICheck:
    def test_lower_alpha_positive(self, sd):
        qi = qi_check(sd, 6)
        assert qi.lower_alpha > 0
        assert qi.upper_alpha >= qi.lower_alpha
        assert qi.lower_beta == qi.upper_beta == 0.0

    def test_envelopes_hold(self, sd):
        qi = qi_check(sd, 5)
        for s in orbit_samples(sd, 5):
            n = len(s.word)
            assert qi.lower_alpha * n - qi.lower_beta <= s.displacement + 1e-12
            assert s.displacement <= qi.upper_alpha * n + qi.upper_beta + 1e-12

    def test_generator_powers_translate_linearly(self, sd):
        # the base point i lies on gen_a's axis, so powers displace linearly
        d1 = hyp_dist(BASE_POINT, apply(sd.gen_a, BASE_POINT))
        g = GroupElement.identity()
        for n in range(1, 21):
            g = g * sd.gen_a
            dn = hyp_dist(BASE_POINT, apply(g, BASE_POINT))
            assert dn == pytest.approx(n * d1, abs=1e-9)


class TestLimitPoint:
    def test_brackets_nested_and_shrinking(self, sd):
        brackets, _ = limit_point_brackets(sd, 10)
        for (lo1, hi1), (lo2, hi2) in zip(brackets, brackets[1:]):
            assert lo1 <= lo2 and hi2 <= hi1
            assert hi2 - lo2 < hi1 - lo1

    def test_eta_in_every_bracket(self, walk12, eta):
        for lo, hi in walk12[0]:
            assert lo <= eta.x <= hi

    def test_eta_near_attracting_fixed_point(self, sd, fam12, eta):
        from oracles import attracting_fixed_point

        g = word_to_element(theta(8, fam12), sd)
        fp = attracting_fixed_point(g)
        assert float(fp.x) == pytest.approx(float(eta.x), abs=2e-10)

    def test_stability_under_tighter_tol(self, walk12):
        brackets, _ = walk12
        e1 = estimate_limit_point(brackets, 1e-10)
        e2 = estimate_limit_point(brackets, 1e-11)
        lo, hi = brackets[-1]
        assert abs(float(e1.x - e2.x)) <= float(hi - lo)

    def test_tolerance_not_reached(self, sd):
        with pytest.raises(ToleranceNotReached) as exc:
            estimate_limit_point(limit_point_brackets(sd, 1)[0], 1e-30)
        assert exc.value.achieved_width > 0


class TestRadialCheck:
    def test_distances_bounded(self, walk12, eta):
        witness = radial_check(eta, walk12[1])
        assert witness.constant_c == max(d for _, d in witness.per_n)
        assert all(math.isfinite(d) for _, d in witness.per_n)
        assert witness.bounded_trend

    def test_stable_under_tighter_eta(self, walk12, eta):
        brackets, orbit = walk12
        eta2 = estimate_limit_point(brackets, 1e-11)
        w1 = radial_check(eta, orbit)
        w2 = radial_check(eta2, orbit)
        assert abs(w1.constant_c - w2.constant_c) < 1e-6

    def test_against_sampling_oracle(self, sd, fam12, walk12, eta):
        from oracles import mp_dist_to_ray_from_i

        witness = radial_check(eta, walk12[1])
        for n, d in witness.per_n:
            p = apply(word_to_element(theta(n, fam12), sd), BASE_POINT)
            oracle = mp_dist_to_ray_from_i((p.x, p.y), eta.x)
            assert d == pytest.approx(oracle, abs=1e-6)

    def test_rejects_interior_eta(self, sd):
        with pytest.raises(ValueError):
            radial_check(BASE_POINT, limit_point_brackets(sd, 4)[1])


class TestSubgroups:
    def test_cyclic_enumeration(self, sd, fam6):
        t1 = theta(1, fam6)
        got = enumerate_subgroup([t1], 2, sd)
        expected = {
            EMPTY,
            t1,
            t1.inverse(),
            Word(t1.letters * 2),
            Word(t1.inverse().letters * 2),
        }
        assert set(got) == expected

    def test_free_rank_two_count(self, sd, fam6):
        gens = [theta(1, fam6), theta(3, fam6)]
        for m in (1, 2, 3):
            got = enumerate_subgroup(gens, m, sd)
            assert len(got) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, m + 1))

    def test_no_unexpected_identities(self, sd, fam6):
        for w in enumerate_subgroup([theta(1, fam6), theta(3, fam6)], 2, sd):
            if w != EMPTY:
                assert not word_to_element(w, sd).is_identity()

    def test_rejects_empty_generators(self, sd):
        with pytest.raises(ValueError):
            enumerate_subgroup([], 2, sd)

    def test_intersection_is_trivial(self, sd, fam6):
        odd = [theta(n, fam6) for n in (1, 3, 5)]
        even = [theta(n, fam6) for n in (2, 4, 6)]
        g1, g2 = enumerate_subgroup(odd, 3, sd), enumerate_subgroup(even, 3, sd)
        assert g1.keys() & g2.keys() == {EMPTY}
        assert intersect_by_matrices(g1, g2) == {EMPTY}
