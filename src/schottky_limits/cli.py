"""Command-line entry point.

Exit status: 0 when every verification in the command's scope passed,
1 on a violation or counterexample, 2 on input errors and on an --out path
that cannot be written.

Custom generators are supplied as a SchottkyData JSON document:

    {
      "gen_a": ["5/3", "4/3", "4/3", "5/3"],
      "gen_b": ["29/3", "-140/3", "4/3", "-19/3"],
      "circles": {
        "C_a":       {"center": "-5/4", "radius": "3/4"},
        "C_a_prime": {"center": "5/4",  "radius": "3/4"},
        "C_b":       {"center": "19/4", "radius": "3/4"},
        "C_b_prime": {"center": "29/4", "radius": "3/4"}
      }
    }

Matrix entries and circle data are rational strings "p/q" of at most 200
characters, without exponent notation; matrices must normalize to
determinant 1. construct, intersect and render refuse an input
whose ping-pong certificate fails, with exit 1 and the violation on stderr.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn, Optional

import click

from . import limits, report as report_mod
from .freewords import PrefixFreeViolated, WordFamily, verify_free_generation
from .render import render_svg
from .schottky import Certificate, SchottkyData, default_generators, verify_ping_pong


def _load_schottky(input_path: Optional[str]) -> SchottkyData:
    if input_path is None:
        return default_generators()
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers over
    # 4300 digits; RecursionError covers deeply nested arrays and objects
    try:
        with open(input_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    try:
        return SchottkyData.from_json_dict(doc)
    except ValueError as exc:
        click.echo(f"schema violation: {exc}", err=True)
        sys.exit(2)


def _load_certified(input_path: Optional[str]) -> SchottkyData:
    """Load the input and stop with exit 1 unless its ping-pong certificate holds."""
    sd = _load_schottky(input_path)
    verdict = verify_ping_pong(sd)
    if not isinstance(verdict, Certificate):
        click.echo(f"violation: {verdict.name}: {verdict.detail}", err=True)
        sys.exit(1)
    return sd


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"output error: {exc}", err=True)
        sys.exit(2)


def _dump(doc: dict, out: Optional[str]) -> None:
    _emit(report_mod.dumps(doc), out)


def _tolerance_not_reached(exc: limits.ToleranceNotReached, out: Optional[str]) -> NoReturn:
    _dump({"status": "tolerance-not-reached", "detail": str(exc)}, out)
    sys.exit(1)


def _positive(ctx, param, value: float) -> float:
    # click.FloatRange lets nan through, and a nan tolerance counts as reached
    if not value > 0:
        raise click.BadParameter("must be positive")
    return value


def max_index_opt(lowest: int):
    return click.option("--max-index", default=6, show_default=True,
                        type=click.IntRange(min=lowest),
                        help="Largest family index for enumeration.")


input_opt = click.option("--input", "input_path", type=click.Path(), default=None,
                         help="SchottkyData JSON file (default: shipped generators).")
out_opt = click.option("--out", "out", type=click.Path(), default=None,
                       help="Output file (default: stdout).")
n_max_opt = click.option("--n-max", default=12, show_default=True,
                         type=click.IntRange(min=1),
                         help="Depth of the theta sequence used for geometry.")
max_syllables_opt = click.option("--max-syllables", default=3, show_default=True,
                                 type=click.IntRange(min=1),
                                 help="Syllable bound for exhaustive enumeration.")
max_length_opt = click.option("--max-length", default=8, show_default=True,
                              type=click.IntRange(min=1),
                              help="Reduced-word length bound for orbit enumeration.")
tol_opt = click.option("--tol", default=1e-10, show_default=True, callback=_positive,
                       help="Bracketing tolerance for the limit point.")


@click.group()
def main():
    """Construct and verify a rank-2 Schottky group whose odd/even doubled-word
    subgroups intersect trivially while sharing a radial limit point."""


@main.command()
@input_opt
@out_opt
def certify(input_path, out):
    """Certify the ping-pong configuration with exact arithmetic."""
    sd = _load_schottky(input_path)
    verdict = verify_ping_pong(sd)
    _dump(report_mod.certificate_dict(verdict), out)
    sys.exit(0 if isinstance(verdict, Certificate) else 1)


@main.command()
@max_index_opt(1)
@max_syllables_opt
@out_opt
def freeness(max_index, max_syllables, out):
    """Exhaustively verify bounded free generation of the doubled words."""
    fam = WordFamily(max_index=max_index)
    try:
        rep = verify_free_generation(fam, max_syllables)
    except PrefixFreeViolated as exc:
        _dump({"status": "prefix-free-violated", "detail": str(exc)}, out)
        sys.exit(1)
    _dump(
        {
            "status": "verified" if rep.verified else "counterexample",
            "note": "bounded verification",
            "max_index": rep.max_index,
            "max_syllables": rep.max_syllables,
            "words_checked": rep.words_checked,
            "pairs_checked": rep.pairs_checked,
            "counterexample": rep.counterexample,
        },
        out,
    )
    sys.exit(0 if rep.verified else 1)


@main.command()
@input_opt
@n_max_opt
@tol_opt
@out_opt
def construct(input_path, n_max, tol, out):
    """Bracket the shared limit point and report the radial witness."""
    sd = _load_certified(input_path)
    try:
        radial = report_mod.radial_fragment(sd, n_max, tol)
    except limits.ToleranceNotReached as exc:
        _tolerance_not_reached(exc, out)
    _dump({"status": "ok", **radial}, out)
    sys.exit(0 if radial["radial_bounded_trend"] else 1)


@main.command()
@input_opt
@max_index_opt(2)
@max_syllables_opt
@out_opt
def intersect(input_path, max_index, max_syllables, out):
    """Enumerate the odd/even theta subgroups and intersect their normal forms."""
    sd = _load_certified(input_path)
    g1, g2 = limits.theta_subgroups(WordFamily(max_index=max_index), max_syllables)
    common = limits.intersect_subgroups(g1, g2)
    cross = limits.intersect_by_matrices(g1, g2, sd)
    doc = {
        "g1_size": len(g1),
        "g2_size": len(g2),
        "intersection": report_mod.word_strings(common),
        "matrix_cross_check_agrees": cross == common,
    }
    _dump(doc, out)
    trivial = doc["intersection"] == ["e"] and doc["matrix_cross_check_agrees"]
    sys.exit(0 if trivial else 1)


@main.command()
@input_opt
@n_max_opt
@max_index_opt(2)
@max_syllables_opt
@max_length_opt
@tol_opt
@out_opt
def report(input_path, n_max, max_index, max_syllables, max_length, tol, out):
    """Run the full pipeline into one construction report."""
    sd = _load_schottky(input_path)
    try:
        doc = report_mod.build_report(
            sd,
            n_max=n_max,
            max_index=max_index,
            max_syllables=max_syllables,
            max_length=max_length,
            tol=tol,
        )
    except limits.ToleranceNotReached as exc:
        _tolerance_not_reached(exc, out)
    _dump(doc, out)
    sys.exit(0 if report_mod.report_verified(doc) else 1)


@main.command()
@input_opt
@n_max_opt
@tol_opt
@out_opt
def render(input_path, n_max, tol, out):
    """Emit an SVG of the construction on the Poincare disk."""
    sd = _load_certified(input_path)
    # eta is bracketed at depth 12 at least; the figure shows the first n_max disks
    brackets = limits.limit_point_brackets(sd, max(n_max, 12))
    try:
        eta = limits.estimate_limit_point(brackets, tol)
    except limits.ToleranceNotReached as exc:
        _tolerance_not_reached(exc, out)
    _emit(render_svg(sd, brackets[:n_max], limits.theta_orbit(sd, n_max), eta), out)
    sys.exit(0)


if __name__ == "__main__":
    main()
