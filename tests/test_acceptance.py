"""Acceptance suite: one test per exit criterion, each printing a pass line
with its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from schottky_limits.freewords import Word, WordFamily, theta, verify_free_generation
from schottky_limits.limits import (
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
    GeodesicRay,
    GroupElement,
    Interior,
    apply,
    dist_to_ray,
    hyp_dist,
    is_loxodromic,
)
from schottky_limits.schottky import (
    Certificate,
    Circle,
    SchottkyData,
    Violation,
    default_generators,
    verify_ping_pong,
)

from conftest import invoke
from oracles import mp_dist_to_ray_from_i
from test_mobius import geodesic_length_oracle, sampled_ray_min


@pytest.fixture(scope="module")
def sd():
    return default_generators()


@pytest.fixture(scope="module")
def fam12():
    return WordFamily(max_index=12)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_ping_pong_certificate(sd):
    t0 = time.perf_counter()
    verdict = verify_ping_pong(sd)
    elapsed = time.perf_counter() - t0
    assert isinstance(verdict, Certificate)
    assert elapsed < 1.0

    # radius mutations: +10% of the gap to the nearest neighbour must still
    # produce a definite verdict, never an unchecked pass
    circles = list(sd.circles())
    verdicts = []
    for i, c in enumerate(circles):
        lo, hi = c.interval()
        gap = min(
            min(abs(lo - o_hi), abs(o_lo - hi))
            for j, other in enumerate(circles)
            if j != i
            for o_lo, o_hi in [other.interval()]
        )
        mutated = circles.copy()
        mutated[i] = Circle(c.center, c.radius + Fraction(gap) / 10)
        data = SchottkyData(sd.gen_a, sd.gen_b, *mutated)
        v = verify_ping_pong(data)
        assert isinstance(v, (Certificate, Violation))
        if isinstance(v, Violation):
            assert v.name
        verdicts.append(isinstance(v, Certificate))
    report(
        f"criterion 1 PASS: certificate in {elapsed * 1e3:.1f} ms; "
        f"radius mutations -> certified={verdicts}"
    )


def test_criterion_02_desk_scale_freeness(sd):
    t0 = time.perf_counter()
    nontrivial = 0
    for s in orbit_samples(sd, 8):
        if len(s.word) == 0:
            continue
        nontrivial += 1
        assert not s.element.is_identity(), s.word
    elapsed = time.perf_counter() - t0
    assert nontrivial == sum(4 * 3 ** (k - 1) for k in range(1, 9))  # 13120
    assert elapsed < 5.0
    report(
        f"criterion 2 PASS: {nontrivial} nontrivial reduced words of length <= 8 "
        f"all non-identity (exact), {elapsed:.2f} s"
    )


def test_criterion_03_purely_loxodromic(sd):
    checked = 0
    for s in orbit_samples(sd, 8):
        if len(s.word) == 0:
            continue
        assert is_loxodromic(s.element), s.word
        checked += 1
    report(f"criterion 3 PASS: all {checked} elements loxodromic by exact trace test")


def test_criterion_04_free_generation():
    fam = WordFamily(max_index=6)
    t0 = time.perf_counter()
    rep = verify_free_generation(fam, 4)
    elapsed = time.perf_counter() - t0
    assert rep.verified
    assert rep.all_nonempty and rep.outer_letters_ok
    assert rep.counterexample is None
    assert elapsed < 10.0
    report(
        f"criterion 4 PASS: {rep.words_checked} symbol words expand nonempty, "
        f"{rep.pairs_checked} pair reductions keep outer letters, {elapsed:.2f} s"
    )


def test_criterion_05_intersection_triviality(sd):
    fam = WordFamily(max_index=6)
    t0 = time.perf_counter()
    odd = [theta(n, fam) for n in (1, 3, 5)]
    even = [theta(n, fam) for n in (2, 4, 6)]
    g1, g2 = enumerate_subgroup(odd, 3, sd), enumerate_subgroup(even, 3, sd)
    common = g1.keys() & g2.keys()
    cross = intersect_by_matrices(g1, g2)
    elapsed = time.perf_counter() - t0
    assert common == {Word()}
    assert cross == common
    assert elapsed < 30.0
    report(
        f"criterion 5 PASS: |G1|={len(g1)}, |G2|={len(g2)} at 3 syllables, "
        f"intersection exactly {{e}} (normal forms and matrices), {elapsed:.2f} s"
    )


def test_criterion_06_shared_radial_limit_point(sd):
    brackets, orbit = limit_point_brackets(sd, 12)
    eta = estimate_limit_point(brackets, 1e-10)
    assert min(float(hi - lo) for lo, hi in brackets) < 1e-10
    assert all(lo <= eta.x <= hi for lo, hi in brackets)

    witness = radial_check(eta, orbit)
    assert len(witness.per_n) == 12
    assert all(math.isfinite(d) for _, d in witness.per_n)
    tail_max = max(d for _, d in witness.per_n[-3:])
    assert tail_max <= witness.constant_c
    assert witness.bounded_trend

    eta2 = estimate_limit_point(brackets, 1e-11)
    witness2 = radial_check(eta2, orbit)
    assert abs(witness.constant_c - witness2.constant_c) < 1e-6
    report(
        f"criterion 6 PASS: eta = {float(eta.x):.12g} bracketed below 1e-10, "
        f"c = {witness.constant_c:.6f}, stable under tol 1e-11"
    )


def test_criterion_07_quasi_isometry_envelope(sd):
    qi = qi_check(sd, 8)
    assert qi.lower_alpha > 0
    d1 = hyp_dist(BASE_POINT, apply(sd.gen_a, BASE_POINT))
    g = GroupElement.identity()
    for n in range(1, 21):
        g = g * sd.gen_a
        assert hyp_dist(BASE_POINT, apply(g, BASE_POINT)) == pytest.approx(
            n * d1, abs=1e-9
        )
    report(
        f"criterion 7 PASS: lower_alpha = {qi.lower_alpha:.6f} > 0 at length 8; "
        f"gen_a powers displace linearly to n = 20 within 1e-9"
    )


def test_criterion_08_metric_correctness(sd):
    rng = random.Random(20240811)
    for _ in range(1000):
        p = Interior(rng.uniform(-10, 10), rng.uniform(0.05, 20))
        q = Interior(rng.uniform(-10, 10), rng.uniform(0.05, 20))
        assert hyp_dist(p, q) == pytest.approx(
            geodesic_length_oracle(p, q), abs=1e-6
        )

    count = 0
    while count < 1000:
        base = Interior(rng.uniform(-4, 4), rng.uniform(0.2, 4))
        endpoint = Boundary(rng.uniform(-8, 8))
        if endpoint.x == base.x:
            continue
        ray = GeodesicRay(base, endpoint)
        p = Interior(rng.uniform(-6, 6), rng.uniform(0.1, 6))
        assert dist_to_ray(p, ray) == pytest.approx(
            sampled_ray_min(p, ray, coarse=300), abs=1e-6
        )
        count += 1

    # isometry invariance at 1e-9 on random group elements
    for _ in range(200):
        w = []
        for _ in range(rng.randint(1, 5)):
            w.append(rng.choice("abAB"))
        from schottky_limits.schottky import word_to_element

        g = word_to_element(Word.from_string("".join(w)), sd)
        p = Interior(
            Fraction(rng.randint(-500, 500), 100), Fraction(rng.randint(1, 500), 100)
        )
        q = Interior(
            Fraction(rng.randint(-500, 500), 100), Fraction(rng.randint(1, 500), 100)
        )
        assert hyp_dist(apply(g, p), apply(g, q)) == pytest.approx(
            hyp_dist(p, q), abs=1e-9
        )
    report(
        "criterion 8 PASS: hyp_dist and dist_to_ray match sampling oracles "
        "within 1e-6 on 1000 instances each; isometry invariance within 1e-9"
    )


def test_criterion_10_deterministic_report(tmp_path):
    args = ["report", "--out"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r1 = invoke(args + [str(out1)])
    r2 = invoke(args + [str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["intersection"] == ["e"]
    report(
        f"criterion 10 PASS: two report runs byte-identical "
        f"({len(out1.read_bytes())} bytes), intersection == ['e']"
    )


def test_radial_distances_against_high_precision_oracle(sd, fam12):
    # supporting evidence for criterion 6: every reported distance n = 1..12
    # agrees with the high-precision sampling oracle
    brackets, orbit = limit_point_brackets(sd, 12)
    eta = estimate_limit_point(brackets, 1e-10)
    witness = radial_check(eta, orbit)
    for n, d in witness.per_n:
        from schottky_limits.schottky import word_to_element

        p = apply(word_to_element(theta(n, fam12), sd), BASE_POINT)
        assert d == pytest.approx(
            mp_dist_to_ray_from_i((p.x, p.y), eta.x), abs=1e-6
        )
    report("radial distances n = 1..12 match the 300-digit sampling oracle")


def test_deep_radial_witness(sd):
    # supporting evidence for criterion 6 at depth 40, where the theta_n
    # matrices carry thousands of bits: the CLI output is pinned to the values
    # of the Fraction implementation, and depth 20 matches an oracle run at
    # the precision of the orbit point's denominator
    result = invoke(["construct", "--n-max", "40"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["eta"] == "7.40075154"
    assert doc["constant_c"] == "3.58428965186"
    assert [row["n"] for row in doc["per_n"]] == list(range(1, 41))
    assert all(math.isfinite(float(row["distance"])) for row in doc["per_n"])
    assert doc["radial_bounded_trend"] is True

    n = 20
    brackets, orbit = limit_point_brackets(sd, 40)
    eta = estimate_limit_point(brackets, 1e-10)
    p = orbit[n - 1]
    dps = max(len(str(p.x.denominator)), len(str(p.y.denominator))) + 60
    oracle = mp_dist_to_ray_from_i((p.x, p.y), eta.x, dps=dps)
    assert float(doc["per_n"][n - 1]["distance"]) == pytest.approx(oracle, abs=1e-9)
    report(f"depth 40 witness pinned; n = {n} matches the {dps}-digit sampling oracle")
