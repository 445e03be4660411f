"""Full-pipeline construction report and its stable serialization.

The report JSON is deterministic: fixed field order, rationals as "p/q"
strings, floats as decimal strings with 12 significant digits.
"""

from __future__ import annotations

import json
from typing import Iterable, List

from .freewords import Word, WordFamily, verify_free_generation
from .limits import (
    enumerate_subgroup,
    estimate_limit_point,
    limit_point_brackets,
    qi_check,
    radial_check,
    theta_generators,
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
    n_max: int = 12,
    max_index: int = 6,
    max_syllables: int = 3,
    max_length: int = 8,
    tol: float = 1e-10,
) -> dict:
    """Run the whole pipeline and assemble the construction report.

    Pipeline: ping-pong certificate, bounded free-generation check, limit
    point bracketing, radial witness, QI envelope, and the odd/even theta
    subgroup intersection at the given syllable depth.
    """
    verdict = verify_ping_pong(sd)
    report: dict = {"certificate": certificate_dict(verdict)}
    if isinstance(verdict, Violation):
        return report

    # exhaustive combinatorics stays at max_index; geometry walks theta to n_max
    fam = WordFamily(max_index=max_index)
    free = verify_free_generation(fam, max_syllables)
    report["free_generation"] = {
        "verified": free.verified,
        "words_checked": free.words_checked,
        "pairs_checked": free.pairs_checked,
        "counterexample": free.counterexample,
        "note": "bounded verification",
    }

    report.update(radial_fragment(sd, n_max, tol))

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

    odd, even = theta_generators(fam)
    g1, g2 = enumerate_subgroup(odd, max_syllables), enumerate_subgroup(even, max_syllables)
    report["intersection"] = word_strings(g1 & g2)
    report["subgroup_sizes"] = {"g1": len(g1), "g2": len(g2)}
    return report


def report_verified(report: dict) -> bool:
    return (
        report["certificate"]["status"] == "certified"
        and report.get("free_generation", {}).get("verified", False)
        and report.get("radial_bounded_trend", False)
        and report.get("intersection") == ["e"]
    )


def dumps(report: dict) -> str:
    """Byte-stable serialization: insertion order, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
