from fractions import Fraction

import pytest
from hypothesis import given, settings

from schottky_limits.freewords import NotReduced, Word, reduce, theta
from schottky_limits.mobius import BASE_POINT, GroupElement, apply, inverse, is_loxodromic
from schottky_limits.schottky import (
    Certificate,
    Circle,
    EmptyWord,
    SchottkyData,
    Violation,
    default_generators,
    image_circle,
    nested_disk,
    verify_ping_pong,
    word_to_element,
)

from conftest import random_reduced_word, words
import random


def nests(outer, inner):
    """The footprint of inner lies strictly inside that of outer."""
    lo, hi = outer.interval()
    ilo, ihi = inner.interval()
    return lo < ilo and ihi < hi


class TestCircle:
    def test_interval(self):
        c = Circle(Fraction(3), Fraction(2))
        assert c.interval() == (1, 5)

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            Circle(Fraction(0), Fraction(0))

    def test_contains(self, sd):
        assert sd.circle_a.contains(
            apply(inverse(sd.gen_a), BASE_POINT)
        )


class TestDefaultGenerators:
    def test_loxodromic(self, sd):
        assert is_loxodromic(sd.gen_a)
        assert is_loxodromic(sd.gen_b)

    def test_certified(self, sd):
        assert isinstance(verify_ping_pong(sd), Certificate)

    def test_footprints_pairwise_disjoint(self, sd):
        ivs = sorted(c.interval() for c in sd.circles())
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            assert hi1 < lo2

    def test_exact_circle_pairing(self, sd):
        assert image_circle(sd.gen_a, sd.circle_a) == sd.circle_a_prime
        assert image_circle(sd.gen_b, sd.circle_b) == sd.circle_b_prime
        assert image_circle(inverse(sd.gen_a), sd.circle_a_prime) == sd.circle_a

    def test_json_round_trip(self, sd):
        assert SchottkyData.from_json(sd.to_json()) == sd


class TestVerifyPingPong:
    def test_identical_disks_rejected(self, sd):
        bad = SchottkyData(
            sd.gen_a, sd.gen_b, sd.circle_a, sd.circle_a_prime,
            sd.circle_a, sd.circle_b_prime,
        )
        verdict = verify_ping_pong(bad)
        assert isinstance(verdict, Violation)
        assert verdict.name == "disks-not-disjoint"

    def test_tangent_disks_rejected(self, sd):
        touching = Circle(Fraction(-5, 4), Fraction(7, 4))  # touches C_a' at 1/2
        bad = SchottkyData(
            sd.gen_a, sd.gen_b, touching, sd.circle_a_prime,
            sd.circle_b, sd.circle_b_prime,
        )
        verdict = verify_ping_pong(bad)
        assert isinstance(verdict, Violation)
        assert verdict.name == "disks-not-disjoint"

    def test_parabolic_generator_rejected(self, sd):
        bad = SchottkyData(
            GroupElement.of(1, 1, 0, 1), sd.gen_b,
            sd.circle_a, sd.circle_a_prime, sd.circle_b, sd.circle_b_prime,
        )
        verdict = verify_ping_pong(bad)
        assert isinstance(verdict, Violation)
        assert verdict.name == "not-loxodromic"

    def test_wrong_circle_pairing_rejected(self, sd):
        shifted = Circle(sd.circle_a.center, Fraction(1, 2))
        bad = SchottkyData(
            sd.gen_a, sd.gen_b, shifted, sd.circle_a_prime,
            sd.circle_b, sd.circle_b_prime,
        )
        verdict = verify_ping_pong(bad)
        assert isinstance(verdict, Violation)
        assert verdict.name == "image-circle-mismatch"


class TestWordToElement:
    def test_empty_is_identity(self, sd):
        assert word_to_element(Word(), sd) == GroupElement.identity()

    def test_cancellation(self, sd):
        assert word_to_element(Word.from_string("aA"), sd) == GroupElement.identity()

    @given(words(max_len=10), words(max_len=10))
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, u, v):
        sd = default_generators()
        assert word_to_element(u * v, sd) == word_to_element(u, sd) * word_to_element(
            v, sd
        )

    @given(words(max_len=12))
    @settings(max_examples=100, deadline=None)
    def test_reduction_preserves_element(self, w):
        sd = default_generators()
        assert word_to_element(reduce(w), sd) == word_to_element(w, sd)


class TestNestedDisk:
    def test_single_letter(self, sd):
        assert nested_disk(Word.from_string("a"), sd) == sd.circle_a_prime
        assert nested_disk(Word.from_string("A"), sd) == sd.circle_a
        assert nested_disk(Word.from_string("b"), sd) == sd.circle_b_prime

    def test_empty_rejected(self, sd):
        with pytest.raises(EmptyWord):
            nested_disk(Word(), sd)

    def test_unreduced_rejected(self, sd):
        with pytest.raises(NotReduced):
            nested_disk(Word.from_string("aA"), sd)

    def test_two_letter_nesting(self, sd):
        a, ab = Word.from_string("a"), Word.from_string("ab")
        assert nests(nested_disk(a, sd), nested_disk(ab, sd))

    def test_nesting_along_random_prefixes(self, sd):
        rng = random.Random(3)
        for _ in range(25):
            w = random_reduced_word(rng, 6)
            for k in range(1, 6):
                outer = nested_disk(Word(w.letters[:k]), sd)
                inner = nested_disk(Word(w.letters[: k + 1]), sd)
                assert nests(outer, inner)

    def test_theta_prefix_radii_strictly_decrease(self, sd, fam12):
        radii = [nested_disk(theta(n, fam12), sd).radius for n in range(1, 11)]
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))

    def test_orbit_point_containment(self, sd):
        rng = random.Random(5)
        for _ in range(40):
            w = random_reduced_word(rng, rng.randint(1, 7))
            disk = nested_disk(w, sd)
            p = apply(word_to_element(w, sd), BASE_POINT)
            assert disk.contains(p)


class TestDeskScaleFreeness:
    def test_short_words_nontrivial_and_loxodromic(self, sd):
        # exhaustive over reduced words of length <= 5; the acceptance suite
        # pushes this to length 8
        def walk(letters, g, depth):
            for let in (("a", 1), ("a", -1), ("b", 1), ("b", -1)):
                if letters and letters[-1] == (let[0], -let[1]):
                    continue
                ng = g * sd.generator(*let)
                assert not ng.is_identity()
                assert is_loxodromic(ng)
                if depth > 1:
                    walk(letters + [let], ng, depth - 1)

        walk([], GroupElement.identity(), 5)
