"""Orbit geometry of the Schottky group: bounded enumeration, limit-point
bracketing for the theta sequence, radial certification, quasi-isometry
envelopes, and bounded subgroup intersection.

All verdicts here are bounded-depth evidence at the stated ranges, never
claims about the infinite group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .freewords import Word, WordFamily, _join, reduce, theta
from .mobius import (
    BASE_POINT,
    Boundary,
    GeodesicRay,
    GroupElement,
    Interior,
    apply,
    dist_to_ray,
    hyp_dist,
)
from .schottky import SchottkyData, image_circle, nested_disk, word_to_element
from .value import Value, init_field


class ToleranceNotReached(ValueError):
    def __init__(self, achieved_width: float, n_used: int):
        self.achieved_width = achieved_width
        self.n_used = n_used
        super().__init__(
            f"bracket width {achieved_width:g} after {n_used} prefixes"
        )


class OrbitSample(Value):
    __slots__ = ("word", "element", "point", "displacement")

    def __init__(self, word: Word, element: GroupElement, point: Interior, displacement: float):
        init_field(self, "word", word)
        init_field(self, "element", element)
        init_field(self, "point", point)
        init_field(self, "displacement", displacement)


def orbit_samples(sd: SchottkyData, max_length: int) -> Iterator[OrbitSample]:
    """All reduced words up to max_length with their exact elements, by DFS.

    Deterministic order: depth-first over letters sorted as a, A, b, B,
    extending only reduced words; the identity sample comes first. An
    explicit stack hands each sample out once.
    """
    o = BASE_POINT
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    gens = {let: sd.generator(*let) for let in letters}
    stack = [((), GroupElement.identity())]
    while stack:
        word, g = stack.pop()
        p = apply(g, o)
        yield OrbitSample(Word(word), g, p, hyp_dist(o, p))
        if len(word) < max_length:
            for let in reversed(letters):
                if word and word[-1] == (let[0], -let[1]):
                    continue
                stack.append((word + (let,), g * gens[let]))


class QIEstimate(Value):
    """Affine envelopes lower_alpha*|w| - lower_beta <= displacement(w)
    <= upper_alpha*|w| + upper_beta over all reduced words up to max_length."""

    __slots__ = ("lower_alpha", "lower_beta", "upper_alpha", "upper_beta", "max_length")

    def __init__(
        self,
        lower_alpha: float,
        lower_beta: float,
        upper_alpha: float,
        upper_beta: float,
        max_length: int,
    ):
        init_field(self, "lower_alpha", lower_alpha)
        init_field(self, "lower_beta", lower_beta)
        init_field(self, "upper_alpha", upper_alpha)
        init_field(self, "upper_beta", upper_beta)
        init_field(self, "max_length", max_length)


def qi_check(sd: SchottkyData, max_length: int) -> QIEstimate:
    """Fit the tightest zero-intercept slopes over the bounded enumeration.

    With zero intercepts the envelopes trivially admit the identity sample
    (displacement 0 at length 0); the slopes are the extreme displacement
    per letter over all nonempty reduced words.
    """
    ratios = [s.displacement / n for s in orbit_samples(sd, max_length) if (n := len(s.word))]
    lower, upper = min(ratios, default=math.inf), max(ratios, default=0.0)
    return QIEstimate(lower, 0.0, upper, 0.0, max_length)


def limit_point_brackets(
    sd: SchottkyData, n_max: int
) -> Tuple[List[Tuple[Fraction, Fraction]], List[Interior]]:
    """The one walk over theta_1..theta_n_max of the default family: the exact
    footprints of their disks (the brackets) and the orbit points theta_n(i).

    omega_k = b^k a uses only positive letters, so nothing cancels: theta_n
    is the prefix of length n(n + 3) of one theta_n_max, and theta_n =
    theta_{n-1} d_n with d_n = b^n a^2 b^n. Each d_n is multiplied onto the
    running prefix product once. theta_n is reduced, so its disk is the image
    of the disk of d_n under theta_{n-1}; the disks nest, and the footprints
    bracket the limit point.
    """
    letters = theta(n_max, WordFamily(max_index=n_max)).letters
    brackets, orbit = [], []
    prev = GroupElement.identity()
    for n in range(1, n_max + 1):
        d = Word(letters[(n - 1) * (n + 2) : n * (n + 3)])
        brackets.append(image_circle(prev, nested_disk(d, sd), require_bounded=True).interval())
        prev = prev * word_to_element(d, sd)
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

    def __init__(self, eta: Boundary, constant_c: float, per_n: Tuple[Tuple[int, float], ...]):
        init_field(self, "eta", eta)
        init_field(self, "constant_c", constant_c)
        init_field(self, "per_n", per_n)

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


def enumerate_subgroup(gens: Sequence[Word], max_syllables: int) -> Set[Word]:
    """Reduced {a,b} normal forms of all products of <= max_syllables factors
    from gens and their inverses, reduced as symbol sequences first.

    Each product extends a shorter one by one factor, so its normal form is
    the shorter one's joined to that factor; the longest products are not
    kept for extension.
    """
    if not gens:
        raise ValueError("gens must be nonempty")
    factors = [reduce(g) for g in gens]
    steps = [
        ((i, e), (f if e == 1 else f.inverse()).letters)
        for i, f in enumerate(factors)
        for e in (1, -1)
    ]
    seen = {()}
    frontier = [(None, ())]  # (the symbol that would cancel, normal form)
    for depth in range(1, max_syllables + 1):
        nxt = []
        for cancelling, letters in frontier:
            for (i, e), f in steps:
                if (i, e) == cancelling:
                    continue
                nw = _join(letters, f)
                seen.add(nw)
                if depth < max_syllables:
                    nxt.append(((i, -e), nw))
        frontier = nxt
    return {Word(w) for w in seen}


def theta_subgroups(
    fam: WordFamily, max_syllables: int
) -> Tuple[Set[Word], Set[Word]]:
    """Bounded enumerations of the odd and even theta subgroups,
    <theta_1, theta_3, ...> and <theta_2, theta_4, ...> up to fam.max_index."""
    odd = [theta(n, fam) for n in range(1, fam.max_index + 1, 2)]
    even = [theta(n, fam) for n in range(2, fam.max_index + 1, 2)]
    return enumerate_subgroup(odd, max_syllables), enumerate_subgroup(even, max_syllables)


def intersect_subgroups(g1: Set[Word], g2: Set[Word]) -> Set[Word]:
    """Exact intersection on reduced normal forms.

    Valid as a group-element intersection once freeness of the ambient group
    is certified, since normal forms are then faithful.
    """
    return g1 & g2


def _common_prefix(u: Tuple, v: Tuple) -> int:
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return n


def _word_matrices(words: Set[Word], sd: SchottkyData) -> Dict[Word, GroupElement]:
    """The exact matrix of each word.

    The sorted words are walked as the branches of their prefix trie: the
    letters of each branch go through one word_to_element, which multiplies
    onto the product of the prefix the branch hangs from, so a prefix shared
    by many words is multiplied out once.
    """
    ws = sorted(w.letters for w in words)
    out = {}
    # (lo, hi, depth, m): ws[lo:hi] share the prefix ws[lo][:depth], whose product is m
    todo = [(0, len(ws), 0, GroupElement.identity())] if ws else []
    while todo:
        lo, hi, depth, m = todo.pop()
        if len(ws[lo]) == depth:  # the shared prefix is itself a word; it sorts first
            out[Word(ws[lo])] = m
            lo += 1
        while lo < hi:
            end = lo + 1
            while end < hi and ws[end][depth] == ws[lo][depth]:
                end += 1
            branch = _common_prefix(ws[lo], ws[end - 1])
            todo.append((lo, end, branch, m * word_to_element(Word(ws[lo][depth:branch]), sd)))
            lo = end
    return out


def intersect_by_matrices(
    g1: Set[Word], g2: Set[Word], sd: SchottkyData
) -> Set[Word]:
    """Cross-check of intersect_subgroups by exact matrix comparison."""
    in_g1 = set(_word_matrices(g1, sd).values())
    return {w for w, m in _word_matrices(g2, sd).items() if m in in_g1}
