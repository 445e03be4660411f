"""Orbit geometry of the Schottky group: bounded enumeration, limit-point
bracketing for the theta sequence, radial certification, quasi-isometry
envelopes (the upper slope exact from the generators, the lower fitted over
every reduced word u v, paired from the Gram matrices of the half-length
words u and v of one walk of freewords._products), and bounded subgroup
intersection. theta_intersection is the one intersection stage of intersect
and report, with a matrix cross-check.

All verdicts here are bounded-depth evidence at the stated ranges, never
claims about the infinite group.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .freewords import EMPTY, Letter, Word, WordFamily, _join, _products, reduce, theta
from .mobius import (
    BASE_POINT,
    Boundary,
    GeodesicRay,
    GroupElement,
    Interior,
    apply,
    displacement,
    dist_to_ray,
    hyp_dist,
)
from .schottky import SchottkyData, image_circle, nested_disk, word_to_element
from .value import Value


class ToleranceNotReached(ValueError):
    def __init__(self, achieved_width: float, n_used: int):
        self.achieved_width = achieved_width
        self.n_used = n_used
        super().__init__(
            f"bracket width {achieved_width:g} after {n_used} prefixes"
        )


class OrbitSample(Value):
    __slots__ = ("word", "element", "point", "displacement")


def _generators(sd: SchottkyData) -> List[Tuple[Letter, GroupElement]]:
    """The four letters a, A, b, B with their exact elements, as the factors
    of _products: a reduced word's element is its parent's times its last
    letter's."""
    return [(let, sd.generator(*let)) for let in (("a", 1), ("a", -1), ("b", 1), ("b", -1))]


def orbit_samples(sd: SchottkyData, max_length: int) -> Iterator[OrbitSample]:
    """All reduced words up to max_length with their exact elements, orbit
    points and displacements: the identity first, then depth first over the
    letters a, A, b, B, in the order of _products."""
    walk = _products(_generators(sd), max_length, operator.mul)
    for word, g in itertools.chain([((), GroupElement.identity())], walk):
        p = apply(g, BASE_POINT)
        yield OrbitSample(Word(word), g, p, hyp_dist(BASE_POINT, p))


class QIEstimate(Value):
    """Affine envelopes lower_alpha*|w| - lower_beta <= displacement(w)
    <= upper_alpha*|w| + upper_beta over all reduced words up to max_length."""

    __slots__ = ("lower_alpha", "lower_beta", "upper_alpha", "upper_beta", "max_length")


def _integer_product(m: tuple, n: tuple) -> tuple:
    """The join of _products on raw integer matrices (a, b, c, d, det): the
    2x2 product, with no content divided out, and its determinant."""
    a, b, c, d, det = m
    e, f, g, h, det2 = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, det * det2


def _half_words(sd: SchottkyData, max_length: int) -> Tuple[dict, dict]:
    """The reduced words of up to ceil(max_length / 2) letters, from one walk
    of _products over raw integer matrices, as the prefixes and suffixes of
    qi_check's pairing.

    A prefix u of determinant D_u and column Gram matrix
    u^T u = [[alpha, beta], [beta, gamma]] is filed under (length, last
    letter) as (alpha, 2 beta, gamma, -2 D_u, 4 D_u, u); a suffix v of
    determinant D_v and row Gram matrix v v^T = [[E, F], [F, H]] under
    (length, first letter) as (E, F, H, D_v, v). The empty suffix, the
    identity, is filed under (0, None).
    """
    factors = [(let, (g.a, g.b, g.c, g.d, g.s * g.s)) for let, g in _generators(sd)]
    prefixes, suffixes = defaultdict(list), defaultdict(list)
    suffixes[0, None].append((1, 0, 1, 1, (1, 0, 0, 1, 1)))
    for w, m in _products(factors, (max_length + 1) // 2, _integer_product):
        a, b, c, d, det = m
        prefixes[len(w), w[-1]].append(
            (a * a + c * c, 2 * (a * b + c * d), b * b + d * d, -2 * det, 4 * det, m)
        )
        suffixes[len(w), w[0]].append((a * a + b * b, a * c + b * d, c * c + d * d, det, m))
    return prefixes, suffixes


def qi_check(sd: SchottkyData, max_length: int) -> QIEstimate:
    """The tightest zero-intercept slopes over the reduced words up to
    max_length.

    With zero intercepts the envelopes trivially admit the identity
    (displacement 0 at length 0). The upper slope is exact: each letter is an
    isometry, so by the triangle inequality
    d(i, x_1...x_n(i)) <= d(i, x_1(i)) + ... + d(i, x_n(i)), and no word
    moves i further per letter than the generator that moves it furthest,
    the largest displacement among the orbit samples of length one.

    The lower slope is fitted at the bound: the least displacement per letter
    over the nonempty reduced words, read from half-length words alone. A
    reduced word of n letters is u v, with |u| = ceil(n/2), |v| = floor(n/2)
    and the last letter of u not the inverse of the first of v; _half_words
    gives the u and v. For an integer matrix M of determinant D,
    (a - d)^2 + (b + c)^2 = |M|^2 - 2 D, and |u v|^2 is the Frobenius product
    <u^T u, v v^T> = alpha E + 2 beta F + gamma H, so
    sinh^2(d(i, uv(i))/2) = (alpha E + 2 beta F + gamma H - 2 D_u D_v)
    / (4 D_u D_v) (Beardon, The Geometry of Discrete Groups, 7.2). That
    ratio is the one mobius.displacement forms from the primitive matrix,
    its numerator and denominator both times one square, and int division
    rounds correctly: each word's float is displacement's, with no product
    matrix and no GroupElement built. sqrt and asinh are monotone, so the
    least ratio of each length n gives that length's slope
    2 asinh(sqrt(ratio))/n. A ratio past the float range
    (d above about 711) is left out; at a length where no word's ratio fits
    a float, the slope is the least displacement of the words' elements.
    """
    upper = max(
        (s.displacement for s in orbit_samples(sd, min(max_length, 1)) if s.word),
        default=0.0,
    )
    prefixes, suffixes = _half_words(sd, max_length)
    least: Dict[int, float] = {}
    past: Dict[int, List[tuple]] = defaultdict(list)
    for (p, last), us in prefixes.items():
        cancelling = (last[0], -last[1])
        for (q, first), vs in suffixes.items():
            n = p + q
            if q not in (p, p - 1) or n > max_length or first == cancelling:
                continue
            best = least.get(n, math.inf)
            for alpha, beta2, gamma, minus_2du, du4, u in us:
                for e, f, h, dv, v in vs:
                    try:
                        ratio = (alpha * e + beta2 * f + gamma * h + minus_2du * dv) / (du4 * dv)
                    except OverflowError:
                        past[n].append(_integer_product(u, v))
                        continue
                    if ratio < best:
                        best = ratio
            least[n] = best
    slopes = [
        2.0 * math.asinh(math.sqrt(ratio)) / n if ratio < math.inf
        else min(displacement(GroupElement.of(*m[:4])) for m in past[n]) / n
        for n, ratio in least.items()
    ]
    return QIEstimate(min(slopes, default=math.inf), 0.0, upper, 0.0, max_length)


def limit_point_brackets(
    sd: SchottkyData, n_max: int
) -> Tuple[List[Tuple[Fraction, Fraction]], List[Interior]]:
    """The one walk over theta_1..theta_n_max of the default family: the exact
    footprints of their disks (the brackets) and the orbit points theta_n(i).

    omega_k = b^k a uses only positive letters, so nothing cancels: theta_n
    is the prefix of length n(n + 3) of one theta_n_max, and theta_n =
    theta_{n-1} d_n with d_n = b^n a^2 b^n. Each letter of d_n is multiplied
    onto the running prefix product once: theta_n is reduced, so its disk is
    the target disk of its last letter under the product of all the letters
    before it; the disks nest, and the footprints bracket the limit point.
    """
    letters = theta(n_max, WordFamily(max_index=n_max)).letters
    brackets, orbit = [], []
    prev = GroupElement.identity()
    for n in range(1, n_max + 1):
        d = letters[(n - 1) * (n + 2) : n * (n + 3)]
        head = prev * word_to_element(Word(d[:-1]), sd)
        brackets.append(
            image_circle(head, nested_disk(Word(d[-1:]), sd), require_bounded=True).interval()
        )
        prev = head * sd.generator(*d[-1])
        orbit.append(apply(prev, BASE_POINT))
    return brackets, orbit


def estimate_limit_point(
    brackets: Sequence[Tuple[Fraction, Fraction]], tol: float
) -> Boundary:
    """Certified bracketing of the limit of theta_n(i) on the boundary.

    Fails unless the deepest of the nested brackets has Euclidean width below
    tol. The returned point is the midpoint of the deepest bracket, which is far
    tighter than tol: downstream radial distances need the limit point
    resolved at the scale of the deepest orbit point, not merely tol. The
    true limit lies inside every bracket.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = brackets[-1]  # the brackets nest, so the deepest is the narrowest
    width = float(hi - lo)
    if width >= tol:
        raise ToleranceNotReached(width, len(brackets))
    return Boundary((lo + hi) / 2)


class RadialWitness(Value):
    """Distances from the theta orbit points to the ray toward the limit point."""

    __slots__ = ("eta", "constant_c", "per_n")

    @property
    def bounded_trend(self) -> bool:
        """No-growth heuristic: the overall max stays within a factor 1.5 of
        the first-half max, and the last-quartile max does not exceed it."""
        n = len(self.per_n)
        if n < 2:
            return True
        half = max(d for _, d in self.per_n[: max(1, n // 2)])
        tail = max(d for _, d in self.per_n[n - max(1, n // 4) :])
        return self.constant_c <= 1.5 * half and tail <= self.constant_c


def radial_check(eta: Boundary, orbit: Sequence[Interior]) -> RadialWitness:
    """Distance from each orbit point to the ray [i, eta]: orbit holds
    theta_1(i)..theta_n_max(i), as limit_point_brackets returns them, and
    per_n numbers the distances n = 1..n_max.

    The reported constant is the max; boundedness of the whole sequence is
    only evidenced, not proven, at this depth.
    """
    if not isinstance(eta, Boundary):
        raise ValueError("eta must be a boundary point")
    ray = GeodesicRay(BASE_POINT, eta)
    per_n = tuple((n, dist_to_ray(p, ray)) for n, p in enumerate(orbit, 1))
    c = max(d for _, d in per_n)
    return RadialWitness(eta, c, per_n)


def _join_with_matrix(left: tuple, right: tuple) -> tuple:
    """The join of _products on (letters, matrix) pairs: the letters by
    _join, the matrices by their product."""
    return _join(left[0], right[0]), left[1] * right[1]


def enumerate_subgroup(
    gens: Sequence[Word], max_syllables: int, sd: SchottkyData
) -> Dict[Word, GroupElement]:
    """Reduced {a,b} normal forms of all products of <= max_syllables factors
    from gens and their inverses, reduced as symbol sequences first, each
    with its exact matrix.

    The one walk of _products carries both: a product's form is its
    parent's joined to its last factor's, and its matrix is its parent's
    times its last factor's, the factors' matrices coming from
    word_to_element, so no matrix is computed from a normal form. The
    identity comes first, so a product whose form wrongly reduces to e
    replaces the identity's matrix with its own.

    Normal forms are faithful once the ambient group is certified free, so
    the & of the forms of two subgroups is the intersection of the
    enumerated elements.
    """
    if not gens:
        raise ValueError("gens must be nonempty")
    factors = [
        ((i, e), (h.letters, word_to_element(h, sd)))
        for i, f in enumerate(reduce(g) for g in gens)
        for e, h in ((1, f), (-1, f.inverse()))
    ]
    subgroup = {EMPTY: GroupElement.identity()}
    subgroup.update(
        (Word(w), m) for _, (w, m) in _products(factors, max_syllables, _join_with_matrix)
    )
    return subgroup


def theta_generators(fam: WordFamily) -> Tuple[List[Word], List[Word]]:
    """The generators of the odd and even theta subgroups, theta_1, theta_3,
    ... and theta_2, theta_4, ... up to fam.max_index."""
    thetas = [theta(n, fam) for n in range(1, fam.max_index + 1)]
    return thetas[0::2], thetas[1::2]


def intersect_by_matrices(
    g1: Dict[Word, GroupElement], g2: Dict[Word, GroupElement]
) -> Set[Word]:
    """Cross-check, by exact matrix comparison, of the intersection of two
    enumerate_subgroup results: the normal forms of g2 whose matrix is the
    matrix of a product in g1.

    The matrices are built from the factors, not from the normal forms, so a
    wrong normal form that equals a form of the other subgroup, e included,
    shows as a disagreement with the normal-form intersection.
    """
    in_g1 = set(g1.values())
    return {w for w, m in g2.items() if m in in_g1}


class ThetaIntersection(Value):
    """The numbers of normal forms of the odd and even theta subgroups of
    enumerate_subgroup, their intersection, and whether
    intersect_by_matrices agrees."""

    __slots__ = ("g1_size", "g2_size", "common", "cross_check_agrees")

    @property
    def verified(self) -> bool:
        """The intersection is {e}, and the cross-check agrees."""
        return self.common == {EMPTY} and self.cross_check_agrees


def theta_intersection(sd: SchottkyData, max_index: int, max_syllables: int) -> ThetaIntersection:
    """The intersection stage of intersect and report: the odd and even theta
    subgroups up to max_index, each enumerated up to max_syllables factors,
    intersected by normal forms and cross-checked by exact matrices."""
    odd, even = theta_generators(WordFamily(max_index=max_index))
    g1 = enumerate_subgroup(odd, max_syllables, sd)
    g2 = enumerate_subgroup(even, max_syllables, sd)
    common = g1.keys() & g2.keys()
    return ThetaIntersection(len(g1), len(g2), common, intersect_by_matrices(g1, g2) == common)
