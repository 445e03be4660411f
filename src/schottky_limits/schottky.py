"""Rank-2 Schottky data: paired half-plane circles, the shipped default
generators, the exact ping-pong certifier, and nested disk images.

All certification is exact rational arithmetic; tangent circles are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Tuple, Union

from .freewords import NotReduced, Word
from .mobius import BASE_POINT, Boundary, GroupElement, Interior, apply, inverse, is_loxodromic
from .value import Value, init_field


class EmptyWord(ValueError):
    pass


class UnboundedDiskImage(ValueError):
    """The Mobius image of the disk is not a bounded disk (pole inside)."""


class Circle(Value):
    """Half-plane circle orthogonal to the real line: real center, r > 0.

    The bounded side is the open half-disk {|z - center| < radius, y > 0}.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: Fraction, radius: Fraction):
        if not radius > 0:
            raise ValueError("radius must be positive")
        init_field(self, "center", center)
        init_field(self, "radius", radius)

    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.center - self.radius, self.center + self.radius)

    def contains(self, p: Interior) -> bool:
        """Strict containment of an interior point in the bounded side."""
        dx = p.x - self.center
        return dx * dx + p.y * p.y < self.radius * self.radius


def image_circle(g: GroupElement, circle: Circle, require_bounded: bool = False) -> Circle:
    """Exact Mobius image of a boundary-orthogonal circle, as a curve.

    The image circle's footprint endpoints are the images of the source
    endpoints. With require_bounded the pole of g must lie outside the
    closed footprint, which makes the bounded side map onto the bounded
    side of the result; otherwise only the curve identity is meaningful.
    """
    lo, hi = circle.interval()
    if g.c != 0:
        pole = Fraction(-g.d, g.c)
        if pole == lo or pole == hi:
            raise UnboundedDiskImage("footprint endpoint maps to infinity")
        if require_bounded and lo < pole < hi:
            raise UnboundedDiskImage(f"pole {pole} inside footprint [{lo}, {hi}]")
    ilo, ihi = apply(g, Boundary(lo)).x, apply(g, Boundary(hi)).x
    if ilo > ihi:
        ilo, ihi = ihi, ilo
    return Circle((ilo + ihi) / 2, (ihi - ilo) / 2)


CIRCLE_NAMES = ("C_a", "C_a_prime", "C_b", "C_b_prime")

# An input rational is a short string without exponent notation: "1e999999999"
# would make Fraction build a huge integer before any check, and violation
# details print exact rationals, which str() refuses beyond 4300 digits.
MAX_RATIONAL_CHARS = 200


def _require_keys(value, where: str, keys: Tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return value


def _rational_string(value, where: str) -> str:
    # Fraction's grammar beyond "p/q" (exponents, '_', inner spaces) varies by Python version
    if not (
        isinstance(value, str)
        and len(value) <= MAX_RATIONAL_CHARS
        and not any(c in "eE_" for c in value)
        and len(value.split()) <= 1
    ):
        raise ValueError(
            f"{where} must be a string of at most {MAX_RATIONAL_CHARS} characters"
            " without exponent notation, '_' or inner whitespace"
        )
    return value


class SchottkyData(Value):
    """Two generators and their paired circles: gen_a maps the exterior of
    circle_a onto the bounded side of circle_a_prime, and gen_b likewise
    pairs circle_b with circle_b_prime."""

    __slots__ = ("gen_a", "gen_b", "circle_a", "circle_a_prime", "circle_b", "circle_b_prime")

    def circles(self) -> Tuple[Circle, Circle, Circle, Circle]:
        return (self.circle_a, self.circle_a_prime, self.circle_b, self.circle_b_prime)

    def generator(self, letter: str, exponent: int) -> GroupElement:
        g = self.gen_a if letter == "a" else self.gen_b
        return g if exponent == 1 else inverse(g)

    def target_disk(self, letter: str, exponent: int) -> Circle:
        """The circle whose bounded side receives (letter^exponent)(exterior)."""
        if letter == "a":
            return self.circle_a_prime if exponent == 1 else self.circle_a
        return self.circle_b_prime if exponent == 1 else self.circle_b

    def to_json_dict(self) -> dict:
        def mat(g):
            return [str(v) for v in g.entries()]

        def circ(c):
            return {"center": str(c.center), "radius": str(c.radius)}

        return {
            "gen_a": mat(self.gen_a),
            "gen_b": mat(self.gen_b),
            "circles": {
                "C_a": circ(self.circle_a),
                "C_a_prime": circ(self.circle_a_prime),
                "C_b": circ(self.circle_b),
                "C_b_prime": circ(self.circle_b_prime),
            },
        }

    @classmethod
    def from_json_dict(cls, d) -> "SchottkyData":
        """Parse a SchottkyData document; every malformed part raises ValueError.

        The document is an object with gen_a, gen_b and circles (other keys
        are ignored). Each matrix is a list of 4 rationals. circles is an
        object with C_a, C_a_prime, C_b and C_b_prime, and every value in it,
        extra keys included, is an object with a center and a radius
        rational. Matrices must have a positive rational square determinant,
        radii must be positive, and no denominator may be zero.
        """
        _require_keys(d, "document", ("gen_a", "gen_b", "circles"))
        circles = _require_keys(d["circles"], "circles", CIRCLE_NAMES)
        for name, c in circles.items():
            _require_keys(c, f"circles[{name!r}]", ("center", "radius"))
            for part in ("center", "radius"):
                _rational_string(c[part], f"circles[{name!r}].{part}")

        def rational(s):
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {s!r}") from None

        def mat(name):
            entries = d[name]
            if not (isinstance(entries, list) and len(entries) == 4):
                raise ValueError(f"{name} must be a list of 4 rational strings")
            return GroupElement.of(
                *[rational(_rational_string(s, f"{name}[{i}]")) for i, s in enumerate(entries)]
            )

        def circ(name):
            return Circle(rational(circles[name]["center"]), rational(circles[name]["radius"]))

        return cls(mat("gen_a"), mat("gen_b"), *map(circ, CIRCLE_NAMES))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SchottkyData":
        return cls.from_json_dict(json.loads(text))


def default_generators() -> SchottkyData:
    """The shipped rank-2 instance.

    gen_a is diag(3, 1/3) conjugated to have axis endpoints -1 and 1, so the
    base point i lies on its axis; gen_b is gen_a conjugated by z -> z + 6.
    The paired circles are the isometric circles of each generator and its
    inverse; their footprints [-2,-1/2], [1/2,2], [4,11/2], [13/2,8] are
    pairwise disjoint.
    """
    f = Fraction
    gen_a = GroupElement.of(f(5, 3), f(4, 3), f(4, 3), f(5, 3))
    gen_b = GroupElement.of(f(29, 3), f(-140, 3), f(4, 3), f(-19, 3))
    return SchottkyData(
        gen_a,
        gen_b,
        Circle(f(-5, 4), f(3, 4)),
        Circle(f(5, 4), f(3, 4)),
        Circle(f(19, 4), f(3, 4)),
        Circle(f(29, 4), f(3, 4)),
    )


class Certificate(Value):
    __slots__ = ("checks",)


class Violation(Value):
    __slots__ = ("name", "detail")


def verify_ping_pong(sd: SchottkyData) -> Union[Certificate, Violation]:
    """Exact certification of the Schottky (ping-pong) configuration.

    Checks, in order: both generators loxodromic; the four footprint
    intervals pairwise disjoint (tangency fails); each generator maps its
    source circle exactly onto its partner; an exterior sample point lands
    strictly inside the partner's bounded side; and the base point i lies
    outside all four closed disks (required by the orbit-nesting machinery).
    """
    checks: List[str] = []

    for name, g in (("gen_a", sd.gen_a), ("gen_b", sd.gen_b)):
        if not is_loxodromic(g):
            return Violation("not-loxodromic", f"{name} is not loxodromic")
        checks.append(f"{name} is loxodromic (|trace| > 2 exactly)")

    circles = sd.circles()
    for i in range(4):
        for j in range(i + 1, 4):
            lo1, hi1 = circles[i].interval()
            lo2, hi2 = circles[j].interval()
            if not (hi1 < lo2 or hi2 < lo1):
                return Violation(
                    "disks-not-disjoint",
                    f"{CIRCLE_NAMES[i]} and {CIRCLE_NAMES[j]} footprints meet",
                )
    checks.append("four disk footprints pairwise disjoint (strict, exact)")

    # exterior sample point: above every disk, outside all of them
    top = max(c.radius for c in circles)
    sample = Interior(Fraction(0), 2 * top + 1)

    pairings = [
        ("gen_a", sd.gen_a, sd.circle_a, sd.circle_a_prime),
        ("gen_a^-1", inverse(sd.gen_a), sd.circle_a_prime, sd.circle_a),
        ("gen_b", sd.gen_b, sd.circle_b, sd.circle_b_prime),
        ("gen_b^-1", inverse(sd.gen_b), sd.circle_b_prime, sd.circle_b),
    ]
    for name, g, src, dst in pairings:
        try:
            img = image_circle(g, src)
        except UnboundedDiskImage as exc:
            return Violation("image-circle-unbounded", f"{name}: {exc}")
        if img != dst:
            return Violation(
                "image-circle-mismatch",
                f"{name} maps its circle to {img}, expected {dst}",
            )
        if not dst.contains(apply(g, sample)):
            return Violation(
                "side-mapping-failed",
                f"{name} does not send the exterior sample into its target disk",
            )
        checks.append(f"{name}: image circle exact, exterior maps inside partner")

    o = BASE_POINT
    for name, c in zip(CIRCLE_NAMES, circles):
        dx = o.x - c.center
        if dx * dx + o.y * o.y <= c.radius * c.radius:
            return Violation("base-point-inside-disk", f"base point i inside {name}")
    checks.append("base point i exterior to all four closed disks")

    return Certificate(tuple(checks))


def word_to_element(w: Word, sd: SchottkyData) -> GroupElement:
    """Exact matrix of a word: a homomorphism from words to isometries.

    Each generator is looked up once per call, and an inverse is computed
    only for a letter the word uses with exponent -1.
    """
    gens = {("a", 1): sd.gen_a, ("b", 1): sd.gen_b}
    g = GroupElement.identity()
    for letter in w.letters:
        h = gens.get(letter)
        if h is None:
            h = gens[letter] = sd.generator(*letter)
        g = g * h
    return g


def nested_disk(w: Word, sd: SchottkyData) -> Circle:
    """The disk guaranteed to contain w(i) and every w w'(i) with w w' reduced.

    For w = x_1 ... x_n this is the image of the target disk of x_n under
    the product x_1 ... x_{n-1}, in one exact image. Each letter maps the
    next disk into its own target disk by the ping-pong disjointness, so on
    certified data the pole of the product lies outside the target disk.
    """
    if len(w) == 0:
        raise EmptyWord("nested_disk needs a nonempty word")
    if not w.is_reduced():
        raise NotReduced("nested_disk needs a reduced word")
    prefix = word_to_element(Word(w.letters[:-1]), sd)
    return image_circle(prefix, sd.target_disk(*w.letters[-1]), require_bounded=True)
