"""Full-pipeline construction report, its verdict and its stable serialization.

The report JSON is deterministic: fixed field order, rationals as "p/q"
strings, floats as decimal strings with 12 significant digits.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Tuple

from .freewords import Word, WordFamily, verify_free_generation
from .limits import (
    estimate_limit_point,
    limit_point_brackets,
    qi_check,
    radial_check,
    theta_intersection,
)
from .schottky import Certificate, SchottkyData, Violation, verify_ping_pong


def fmt_float(v: float) -> str:
    return format(v, ".12g")


def certificate_dict(verdict) -> dict:
    if isinstance(verdict, Certificate):
        return {"status": "certified", "checks": list(verdict.checks)}
    return {
        "status": "violation",
        "name": verdict.name,
        "detail": verdict.detail,
    }


def radial_fragment(sd: SchottkyData, n_max: int, tol: float) -> dict:
    """Limit point, radial constant and per-depth distances of theta_1..theta_n_max.

    One walk of the theta prefix products gives both the brackets and the
    orbit points. Raises ToleranceNotReached when the deepest bracket, that of
    theta_n_max, is not narrower than tol.
    """
    brackets, orbit = limit_point_brackets(sd, n_max)
    witness = radial_check(estimate_limit_point(brackets, tol), orbit)
    return {
        "eta": fmt_float(float(witness.eta.x)),
        "constant_c": fmt_float(witness.constant_c),
        "per_n": [{"n": n, "distance": fmt_float(d)} for n, d in witness.per_n],
        "radial_bounded_trend": witness.bounded_trend,
    }


def word_strings(words: Iterable[Word]) -> List[str]:
    """String forms, shortest first, then lexicographic."""
    return sorted((w.to_string() for w in words), key=lambda s: (len(s), s))


def build_report(
    sd: SchottkyData,
    n_max: int,
    max_index: int,
    max_syllables: int,
    max_length: int,
    tol: float,
) -> Tuple[dict, bool]:
    """Run the whole pipeline into the construction report and its verdict.

    Pipeline: ping-pong certificate, bounded free-generation check, limit
    point bracketing, radial witness, QI envelope, and the odd/even theta
    subgroup intersection at the given syllable depth. The verdict ANDs all
    but the QI envelope, which is a measurement.
    """
    verdict = verify_ping_pong(sd)
    report: dict = {"certificate": certificate_dict(verdict)}
    if isinstance(verdict, Violation):
        return report, False

    # exhaustive combinatorics stays at max_index; geometry walks theta to n_max
    free = verify_free_generation(WordFamily(max_index=max_index), max_syllables)
    report["free_generation"] = {
        "verified": free.verified,
        "words_checked": free.words_checked,
        "pairs_checked": free.pairs_checked,
        "counterexample": free.counterexample,
        "note": "bounded verification",
    }

    report.update(radial := radial_fragment(sd, n_max, tol))

    qi = qi_check(sd, max_length)
    report["qi"] = {
        "alphas": {
            "lower": fmt_float(qi.lower_alpha),
            "upper": fmt_float(qi.upper_alpha),
        },
        "betas": {
            "lower": fmt_float(qi.lower_beta),
            "upper": fmt_float(qi.upper_beta),
        },
        "max_length": qi.max_length,
    }

    meet = theta_intersection(sd, max_index, max_syllables)
    report["intersection"] = word_strings(meet.common)
    report["subgroup_sizes"] = {"g1": meet.g1_size, "g2": meet.g2_size}
    return report, free.verified and radial["radial_bounded_trend"] and meet.verified


def dumps(report: dict) -> str:
    """Byte-stable serialization: insertion order, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
