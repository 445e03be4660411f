"""SVG figure of the construction on the Poincare disk.

The geometry is computed in the half-plane by the caller; this module maps
what it is given through the Cayley transform w = (z - i)/(z + i) onto a
bounded canvas, and draws the ray from i toward eta as a disk radius.
Schottky circles carry class "schottky", theta orbit markers class "orbit",
nested disks class "nested".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .mobius import BASE_POINT, Boundary, Interior
from .schottky import SchottkyData

SIZE = 600.0
MARGIN = 20.0
SCALE = (SIZE - 2 * MARGIN) / 2.0
CENTER = SIZE / 2.0


def cayley(z: complex) -> complex:
    """Half-plane point x + iy to the unit disk."""
    return (z - 1j) / (z + 1j)


def _complex(p: Interior) -> complex:
    return complex(float(p.x), float(p.y))


def to_canvas(w: complex) -> Tuple[float, float]:
    # SVG y axis points down
    return (CENTER + SCALE * w.real, CENTER - SCALE * w.imag)


def disk_circle(lo: Fraction, hi: Fraction) -> Tuple[float, float, float]:
    """Image of the boundary-orthogonal half-plane circle with footprint
    [lo, hi]: the circle through p = cayley(lo) and q = cayley(hi) that is
    orthogonal to the unit circle, with center 2(p + q)/|p + q|^2 and radius
    |p - q|/|p + q|. A disk below float resolution has radius 0 at p."""
    p, q = cayley(complex(float(lo))), cayley(complex(float(hi)))
    s = abs(p + q)
    c = 2 * (p + q) / (s * s)
    return c.real, c.imag, abs(p - q) / s


def _fmt(v: float) -> str:
    return format(v, ".3f")


def _circle(cls: str, footprint: Tuple[Fraction, Fraction], stroke: str, width: str) -> str:
    ux, uy, r = disk_circle(*footprint)
    x, y = to_canvas(complex(ux, uy))
    return (
        f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" '
        f'r="{_fmt(SCALE * r)}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"/>'
    )


def render_svg(
    sd: SchottkyData,
    brackets: Sequence[Tuple[Fraction, Fraction]],
    orbit: Sequence[Interior],
    eta: Boundary,
) -> str:
    """SVG 1.1 document with the nested disks of the given footprints, the
    four Schottky circles, the ray toward eta, and the given orbit markers."""
    parts: List[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE:g}" height="{SIZE:g}" '
        f'viewBox="0 0 {SIZE:g} {SIZE:g}">',
        f'<rect width="{SIZE:g}" height="{SIZE:g}" fill="white"/>',
    ]
    # boundary circle of the Poincare disk, drawn as a path to keep <circle>
    # elements reserved for the construction itself
    bx, by = to_canvas(complex(-1.0, 0.0))
    parts.append(
        f'<path class="boundary" d="M {_fmt(bx)} {_fmt(by)} '
        f"a {_fmt(SCALE)} {_fmt(SCALE)} 0 1 0 {_fmt(2 * SCALE)} 0 "
        f'a {_fmt(SCALE)} {_fmt(SCALE)} 0 1 0 {_fmt(-2 * SCALE)} 0 Z" '
        'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    parts += [_circle("nested", b, "#bbbbbb", "0.6") for b in brackets]
    parts += [_circle("schottky", c.interval(), "#1f77b4", "1.2") for c in sd.circles()]

    # cayley(i) = 0: the ray from i to eta is the radius toward cayley(eta),
    # and the point at distance t = 12 k/128 lies at tanh(t/2) along it
    end = cayley(complex(float(eta.x)))
    pts = [to_canvas(math.tanh(6.0 * k / 128) * end) for k in range(129)]
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)
    parts.append(
        f'<path class="ray" d="{d}" fill="none" stroke="#d62728" '
        'stroke-width="1.0"/>'
    )

    for p in orbit:
        x, y = to_canvas(cayley(_complex(p)))
        parts.append(
            f'<circle class="orbit" cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" '
            'fill="#2ca02c"/>'
        )

    x, y = to_canvas(cayley(_complex(BASE_POINT)))
    parts.append(
        f'<rect class="basepoint" x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" '
        'width="6" height="6" fill="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
