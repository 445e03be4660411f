"""Seeded benchmark instances and the known answers every job is checked against.

A seeded instance is the shipped Schottky instance conjugated by a rational
Mobius map h drawn from the seed: h has small integer entries and a positive
determinant that is a perfect square. Conjugation by h is an isometry of the
upper half-plane, so it keeps every verdict the benchmark checks: the
ping-pong certificate, freeness, the trivial odd/even intersection and the
matrix cross-check. It moves the shared limit point eta0 of the shipped
instance to h(eta0), so the expected `eta` follows from h alone.

A draw is rejected when the pole of h lies in a closed disk (the image would
not be a bounded disk) or when the base point i lands in a closed image disk
(the certifier requires i outside all four).

This module uses only the standard library and never imports the program
under test: the program receives the generated JSON and nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

GOLDEN = Path(__file__).resolve().parent / "golden"

Matrix = Tuple[Fraction, Fraction, Fraction, Fraction]

#: The shipped instance, as data (see the SchottkyData schema in the CLI).
SHIPPED = {
    "gen_a": ["5/3", "4/3", "4/3", "5/3"],
    "gen_b": ["29/3", "-140/3", "4/3", "-19/3"],
    "circles": {
        "C_a": {"center": "-5/4", "radius": "3/4"},
        "C_a_prime": {"center": "5/4", "radius": "3/4"},
        "C_b": {"center": "19/4", "radius": "3/4"},
        "C_b_prime": {"center": "29/4", "radius": "3/4"},
    },
}

#: Entries of h are drawn from -H_BOUND..H_BOUND.
H_BOUND = 4
SQUARE_DETS = (1, 4, 9, 16)


def load_known_answers() -> dict:
    return json.loads((GOLDEN / "known_answers.json").read_text())


def load_golden() -> Dict[str, bytes]:
    """Golden stdout bytes captured from the seed commit, keyed by file name."""
    return {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())
            if p.suffix in (".json", ".svg") and p.name != "known_answers.json"}


def mobius(m: Matrix, x: Fraction) -> Fraction:
    a, b, c, d = m
    return (a * x + b) / (c * x + d)


def matmul(g: Matrix, h: Matrix) -> Matrix:
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def adjugate(h: Matrix) -> Matrix:
    """Inverse up to the positive scale det(h); the same Mobius map."""
    a, b, c, d = h
    return (d, -b, -c, a)


def _footprint(circle: dict) -> Tuple[Fraction, Fraction]:
    c, r = Fraction(circle["center"]), Fraction(circle["radius"])
    return c - r, c + r


def _admissible(h: Matrix) -> bool:
    a, b, c, d = h
    if c != 0:
        pole = Fraction(-d, c)
        if any(lo <= pole <= hi for lo, hi in map(_footprint, SHIPPED["circles"].values())):
            return False
    for circle in conjugate(h)["circles"].values():
        center, radius = Fraction(circle["center"]), Fraction(circle["radius"])
        # i = (0, 1) inside or on the closed image disk
        if center * center + 1 <= radius * radius:
            return False
    return True


def draw_h(seed: int) -> Matrix:
    """The first admissible h of the seed's stream of integer matrices."""
    rng = random.Random(seed)
    while True:
        h = tuple(Fraction(rng.randint(-H_BOUND, H_BOUND)) for _ in range(4))
        if h[0] * h[3] - h[1] * h[2] in SQUARE_DETS and _admissible(h):
            return h


def conjugate(h: Matrix) -> dict:
    """SchottkyData JSON of the shipped instance conjugated by h.

    Generators become h g h^-1 (determinant 1, since det g = 1 and h^-1 is
    the adjugate over det h); each circle becomes the circle through the
    images of its footprint endpoints.
    """
    hinv = adjugate(h)
    det = h[0] * h[3] - h[1] * h[2]

    def gen(entries):
        g = tuple(Fraction(v) for v in entries)
        return [str(v / det) for v in matmul(matmul(h, g), hinv)]

    def circ(circle):
        lo, hi = sorted(mobius(h, x) for x in _footprint(circle))
        return {"center": str((lo + hi) / 2), "radius": str((hi - lo) / 2)}

    return {
        "gen_a": gen(SHIPPED["gen_a"]),
        "gen_b": gen(SHIPPED["gen_b"]),
        "circles": {name: circ(c) for name, c in SHIPPED["circles"].items()},
    }


def eta_bracket(h: Matrix, eta0: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
    """Exact interval containing h(eta0); h has no pole between the ends."""
    lo, hi = sorted(mobius(h, x) for x in eta0)
    return lo, hi


def fmt_float(v: float) -> str:
    """The report's float format: 12 significant digits."""
    return format(v, ".12g")


@dataclass(frozen=True)
class Instance:
    seed: int
    h: Matrix
    doc: dict
    eta_lo: Fraction
    eta_hi: Fraction

    def eta_strings(self) -> set:
        """Every printed `eta` consistent with the exact bracket of h(eta0)."""
        return {fmt_float(float(self.eta_lo)), fmt_float(float(self.eta_hi))}


def make_instance(seed: int, h: Optional[Matrix] = None) -> Instance:
    """The seeded instance, or the conjugate by a given h (used by the tests)."""
    h = draw_h(seed) if h is None else h
    known = load_known_answers()
    eta0 = tuple(Fraction(s) for s in known["eta0_bracket"])
    lo, hi = eta_bracket(h, eta0)
    return Instance(seed, h, conjugate(h), lo, hi)


# -- known-answer checks: each returns None when the output is right, else why

def _exit_failure(rc: int, err: bytes) -> str:
    return f"exit {rc}: {err.decode(errors='replace').strip()[-200:]}"


def check_golden(expected: bytes):
    def check(rc: int, out: bytes, err: bytes) -> Optional[str]:
        if rc != 0:
            return _exit_failure(rc, err)
        if out != expected:
            return "stdout differs from the golden copy"
        return None
    return check


def check_construct(inst: Instance, n_max: int):
    def check(rc: int, out: bytes, err: bytes) -> Optional[str]:
        if rc != 0:
            return _exit_failure(rc, err)
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if doc.get("status") != "ok":
            return f"status {doc.get('status')!r}"
        if doc.get("eta") not in inst.eta_strings():
            return f"eta {doc.get('eta')!r}, expected one of {sorted(inst.eta_strings())}"
        if [row.get("n") for row in doc.get("per_n", [])] != list(range(1, n_max + 1)):
            return "per_n does not cover 1..n_max"
        if doc.get("radial_bounded_trend") is not True:
            return "radial trend not bounded"
        return None
    return check


def check_render(n_max: int):
    def check(rc: int, out: bytes, err: bytes) -> Optional[str]:
        if rc != 0:
            return _exit_failure(rc, err)
        text = out.decode(errors="replace")
        if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
            return "not a complete SVG document"
        counts = {cls: text.count(f'class="{cls}"') for cls in ("schottky", "nested", "orbit", "ray")}
        if counts != {"schottky": 4, "nested": n_max, "orbit": n_max, "ray": 1}:
            return f"unexpected figure elements {counts}"
        return None
    return check


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="Print a seeded instance and its eta bracket.")
    ap.add_argument("--seed", type=int, required=True)
    inst = make_instance(ap.parse_args().seed)
    print(json.dumps({"h": [str(v) for v in inst.h], "schottky_data": inst.doc,
                      "eta_bracket": [str(inst.eta_lo), str(inst.eta_hi)],
                      "eta": sorted(inst.eta_strings())}, indent=2))
