"""SVG figure of the construction on the Poincare disk.

Computation lives in the half-plane; this module conformally maps everything
through the Cayley transform w = (z - i)/(z + i) for a bounded canvas.
Schottky circles carry class "schottky", theta orbit markers class "orbit",
nested disks class "nested".
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .freewords import WordFamily, theta
from .mobius import (
    BASE_POINT,
    Boundary,
    GeodesicRay,
    Infinity,
    Interior,
    apply,
    point_along_ray,
)
from .schottky import Circle, SchottkyData, nested_disk, word_to_element

SIZE = 600.0
MARGIN = 20.0
SCALE = (SIZE - 2 * MARGIN) / 2.0
CENTER = SIZE / 2.0


def cayley(p) -> complex:
    """Half-plane point to the unit disk."""
    if isinstance(p, Infinity):
        return complex(0.0, 1.0)
    z = complex(float(p.x), float(p.y) if isinstance(p, Interior) else 0.0)
    return (z - 1j) / (z + 1j)


def to_canvas(w: complex) -> Tuple[float, float]:
    # SVG y axis points down
    return (CENTER + SCALE * w.real, CENTER - SCALE * w.imag)


def disk_circle(c: Circle) -> Tuple[float, float, float]:
    """Image of a boundary-orthogonal half-plane circle: a disk circle through
    the Cayley images of its two footprint endpoints and its top point."""
    lo, hi = c.interval()
    p1 = cayley(Boundary(lo))
    p2 = cayley(Boundary(hi))
    p3 = cayley(Interior(c.center, c.radius))
    if abs(p1 - p2) < 1e-9:
        # disk below float resolution on the canvas: draw a point circle
        return p3.real, p3.imag, 0.0
    return circumcircle(p1, p2, p3)


def circumcircle(p1: complex, p2: complex, p3: complex) -> Tuple[float, float, float]:
    ax, ay, bx, by, cx, cy = p1.real, p1.imag, p2.real, p2.imag, p3.real, p3.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    r = math.hypot(ax - ux, ay - uy)
    return ux, uy, r


def _fmt(v: float) -> str:
    return format(v, ".3f")


def render_svg(
    sd: SchottkyData,
    fam: WordFamily,
    eta: Optional[Boundary],
    n_max: int,
) -> str:
    """SVG 1.1 document with the four Schottky circles, n_max theta orbit
    markers, the ray toward eta, and the nested disks of the theta prefixes."""
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

    for n in range(1, n_max + 1):
        ux, uy, r = disk_circle(nested_disk(theta(n, fam), sd))
        x, y = to_canvas(complex(ux, uy))
        parts.append(
            f'<circle class="nested" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(SCALE * r)}" fill="none" stroke="#bbbbbb" '
            'stroke-width="0.6"/>'
        )

    for c in sd.circles():
        ux, uy, r = disk_circle(c)
        x, y = to_canvas(complex(ux, uy))
        parts.append(
            f'<circle class="schottky" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(SCALE * r)}" fill="none" stroke="#1f77b4" '
            'stroke-width="1.2"/>'
        )

    if eta is not None:
        ray = GeodesicRay(BASE_POINT, eta)
        pts = []
        for k in range(129):
            t = 12.0 * k / 128
            pts.append(to_canvas(cayley(point_along_ray(ray, t))))
        d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)
        parts.append(
            f'<path class="ray" d="{d}" fill="none" stroke="#d62728" '
            'stroke-width="1.0"/>'
        )

    for n in range(1, n_max + 1):
        p = apply(word_to_element(theta(n, fam), sd), BASE_POINT)
        x, y = to_canvas(cayley(p))
        parts.append(
            f'<circle class="orbit" cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" '
            'fill="#2ca02c"/>'
        )

    x, y = to_canvas(cayley(BASE_POINT))
    parts.append(
        f'<rect class="basepoint" x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" '
        'width="6" height="6" fill="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
