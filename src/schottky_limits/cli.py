"""Command-line entry point: `schottky-limits COMMAND [OPTIONS]`, or
`python -m schottky_limits.cli COMMAND [OPTIONS]`.

The parser is the standard library's argparse, so the command line needs no
third-party package. Each command is the module function of the same name,
looked up when it runs. Options are spelled out in full (no abbreviations),
as `--opt VALUE` or `--opt=VALUE`; `--help` shows the commands or a
command's options.

Each command returns its output, a JSON document or the SVG text, and
whether every verification in its scope passed; main alone writes the
output (to stdout or --out) and sets the exit status. Exit status: 0 when
every verification in the command's scope passed, 1 on a violation,
counterexample or unreached tolerance, 2 on usage errors (with the usage on
stderr), on input errors and on output that cannot be written, to --out or
to stdout.

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
characters, without exponent notation, '_' or inner whitespace; matrices
must normalize to determinant 1. construct, intersect and render refuse an
input whose ping-pong certificate fails, with exit 1 and the violation on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, NoReturn, Optional, Tuple

from . import limits, report as report_mod
from .freewords import WordFamily, verify_free_generation
from .schottky import Certificate, SchottkyData, default_generators, verify_ping_pong


def _fail(message: str, status: int) -> NoReturn:
    print(message, file=sys.stderr)
    sys.exit(status)


def _load_schottky(input_path: Optional[str]) -> SchottkyData:
    if input_path is None:
        return default_generators()
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers over
    # 4300 digits; RecursionError covers deeply nested arrays and objects
    try:
        with open(input_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        _fail(f"input error: {exc}", 2)
    try:
        return SchottkyData.from_json_dict(doc)
    except ValueError as exc:
        _fail(f"schema violation: {exc}", 2)


def _load_certified(input_path: Optional[str]) -> SchottkyData:
    """Load the input and stop with exit 1 unless its ping-pong certificate holds."""
    sd = _load_schottky(input_path)
    verdict = verify_ping_pong(sd)
    if not isinstance(verdict, Certificate):
        _fail(f"violation: {verdict.name}: {verdict.detail}", 1)
    return sd


def _emit(text: str, out: Optional[str]) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:
            # the unwritten bytes stay buffered, and the interpreter's flush
            # at exit would fail again and turn the exit status into 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail(f"output error: {exc}", 2)


# -- options -------------------------------------------------------------------

def _at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer.") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={lowest}.")
        return value
    return parse


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid float.") from None
    # `not value > 0` also refuses nan, which would count as reached
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _max_index(lowest: int):
    return ("--max-index", dict(default=6, type=_at_least(lowest), metavar="INTEGER",
                                help="Largest family index for enumeration. (default: 6)"))


_INPUT = ("--input", dict(dest="input_path", metavar="PATH",
                          help="SchottkyData JSON file (default: shipped generators)."))
_OUT = ("--out", dict(metavar="PATH", help="Output file (default: stdout)."))
_N_MAX = ("--n-max", dict(default=12, type=_at_least(1), metavar="INTEGER",
                          help="Depth of the theta sequence used for geometry. (default: 12)"))
_MAX_SYLLABLES = ("--max-syllables", dict(
    default=3, type=_at_least(1), metavar="INTEGER",
    help="Syllable bound for exhaustive enumeration. (default: 3)"))
_MAX_LENGTH = ("--max-length", dict(
    default=8, type=_at_least(1), metavar="INTEGER",
    help="Reduced-word length bound for orbit enumeration. (default: 8)"))
_TOL = ("--tol", dict(default=1e-10, type=_positive, metavar="FLOAT",
                      help="Bracketing tolerance for the limit point. (default: 1e-10)"))

#: The options of each command, in the order of its --help.
_COMMANDS = {
    "certify": (_INPUT, _OUT),
    "freeness": (_max_index(1), _MAX_SYLLABLES, _OUT),
    "construct": (_INPUT, _N_MAX, _TOL, _OUT),
    "intersect": (_INPUT, _max_index(2), _MAX_SYLLABLES, _OUT),
    "report": (_INPUT, _N_MAX, _max_index(2), _MAX_SYLLABLES, _MAX_LENGTH, _TOL, _OUT),
    "render": (_INPUT, _N_MAX, _TOL, _OUT),
}


def _join_values(args: List[str]) -> List[str]:
    """Each option word followed by its value, as one --opt=VALUE word: an
    option takes the next word as its value even when it begins with '-'."""
    flags = {flag for options in _COMMANDS.values() for flag, _ in options}
    joined, words = [], iter(args)
    for word in words:
        value = next(words, None) if word in flags else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _new_parser(factory, *args, **kwargs) -> argparse.ArgumentParser:
    # only --help, as -h is no option; no abbreviated option names
    parser = factory(*args, add_help=False, allow_abbrev=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _parsers(prog: str) -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser of the command line and the parser of each command."""
    parser = _new_parser(argparse.ArgumentParser, prog=prog, description=_Main.__doc__)
    subparsers = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                       required=True)
    commands = {}
    for name, options in _COMMANDS.items():
        doc = globals()[name].__doc__
        commands[name] = _new_parser(subparsers.add_parser, name, help=doc, description=doc)
        for flag, kwargs in options:
            commands[name].add_argument(flag, **kwargs)
    return parser, commands


class _Main:
    """Construct and verify a rank-2 Schottky group whose odd/even doubled-word
    subgroups intersect trivially while sharing a radial limit point."""

    def __call__(self) -> None:
        self.main()

    def main(self, args=None, prog_name: Optional[str] = None,
             standalone_mode: bool = True) -> NoReturn:
        """Run the command in args (default: sys.argv[1:]), write its output
        and exit with its verdict.

        The keywords are those of a click command, for callers written
        against one; every command ends with SystemExit in either mode.
        """
        args = sys.argv[1:] if args is None else args
        parser, commands = _parsers(prog_name or "schottky-limits")
        parsed, unknown = parser.parse_known_args(_join_values(args))
        if unknown:  # with the usage of the command, not of the command line
            commands[parsed.command].error(f"unrecognized arguments: {' '.join(unknown)}")
        parsed = vars(parsed)
        out = parsed.pop("out")
        try:
            output, passed = globals()[parsed.pop("command")](**parsed)
        except limits.ToleranceNotReached as exc:
            output, passed = {"status": "tolerance-not-reached", "detail": str(exc)}, False
        _emit(output if isinstance(output, str) else report_mod.dumps(output), out)
        sys.exit(0 if passed else 1)


#: The console script; main.main(args, prog_name, standalone_mode) runs args.
main = _Main()


# -- commands ------------------------------------------------------------------

def certify(input_path):
    """Certify the ping-pong configuration with exact arithmetic."""
    verdict = verify_ping_pong(_load_schottky(input_path))
    return report_mod.certificate_dict(verdict), isinstance(verdict, Certificate)


def freeness(max_index, max_syllables):
    """Exhaustively verify bounded free generation of the doubled words."""
    rep = verify_free_generation(WordFamily(max_index=max_index), max_syllables)
    doc = {
        "status": "verified" if rep.verified else "counterexample",
        "note": "bounded verification",
        "max_index": rep.max_index,
        "max_syllables": rep.max_syllables,
        "words_checked": rep.words_checked,
        "pairs_checked": rep.pairs_checked,
        "counterexample": rep.counterexample,
    }
    return doc, rep.verified


def construct(input_path, n_max, tol):
    """Bracket the shared limit point and report the radial witness."""
    radial = report_mod.radial_fragment(_load_certified(input_path), n_max, tol)
    return {"status": "ok", **radial}, radial["radial_bounded_trend"]


def intersect(input_path, max_index, max_syllables):
    """Enumerate the odd/even theta subgroups and intersect their normal forms."""
    meet = limits.theta_intersection(_load_certified(input_path), max_index, max_syllables)
    doc = {
        "g1_size": meet.g1_size,
        "g2_size": meet.g2_size,
        "intersection": report_mod.word_strings(meet.common),
        "matrix_cross_check_agrees": meet.cross_check_agrees,
    }
    return doc, meet.verified


def report(input_path, n_max, max_index, max_syllables, max_length, tol):
    """Run the full pipeline into one construction report."""
    return report_mod.build_report(
        _load_schottky(input_path),
        n_max=n_max,
        max_index=max_index,
        max_syllables=max_syllables,
        max_length=max_length,
        tol=tol,
    )


def render(input_path, n_max, tol):
    """Emit an SVG of the construction on the Poincare disk."""
    from .render import render_svg  # only this command loads the SVG writer

    sd = _load_certified(input_path)
    # eta is bracketed at depth 12 at least; the figure shows the first n_max
    # disks and orbit points of the same walk
    brackets, orbit = limits.limit_point_brackets(sd, max(n_max, 12))
    eta = limits.estimate_limit_point(brackets, tol)
    return render_svg(sd, brackets[:n_max], orbit[:n_max], eta), True


if __name__ == "__main__":
    main()
