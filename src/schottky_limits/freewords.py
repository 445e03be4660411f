"""Free-group words over {a, b}, the prefix-free family b^n a, and the
bounded verifier for free generation of the doubled-word sequence, which
counts the symbol words in closed form, checks each sign-change pair once and
finds an empty product by pairing half-length symbol words.

String form uses the case convention: 'a'/'b' are the generators, 'A'/'B'
their inverses, and 'e' the empty word.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Callable, Iterator, Optional, Sequence, Tuple, TypeVar

from .value import Value, init_field


class BadIndex(ValueError):
    pass


class NotReduced(ValueError):
    pass


class PrefixFreeViolated(ValueError):
    pass


Letter = Tuple[str, int]  # (generator, exponent +-1)


class Word(Value):
    __slots__ = ("letters",)

    def __init__(self, letters: Tuple[Letter, ...] = ()):
        init_field(self, "letters", letters)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        if s in ("", "e"):
            return cls()
        letters = []
        for ch in s:
            if ch in "ab":
                letters.append((ch, 1))
            elif ch in "AB":
                letters.append((ch.lower(), -1))
            else:
                raise ValueError(f"bad letter {ch!r}")
        return cls(tuple(letters))

    def to_string(self) -> str:
        if not self.letters:
            return "e"
        return "".join(g if e == 1 else g.upper() for g, e in self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation, without reduction."""
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def is_reduced(self) -> bool:
        return all(
            not (x[0] == y[0] and x[1] == -y[1])
            for x, y in zip(self.letters, self.letters[1:])
        )

    def is_prefix_of(self, other: "Word") -> bool:
        n = len(self.letters)
        return len(other.letters) >= n and other.letters[:n] == self.letters

    def __repr__(self):
        return f"Word({self.to_string()!r})"


EMPTY = Word()


def reduce(w: Word) -> Word:
    """Unique freely reduced normal form, via a single stack pass."""
    stack = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    return Word(tuple(stack))


def reverse(w: Word) -> Word:
    """Letters in reverse order, exponents unchanged (not the inverse)."""
    return Word(tuple(reversed(w.letters)))


def omega(n: int) -> Word:
    """The n-th word of the default prefix-free family: b^n a."""
    if n < 1:
        raise BadIndex(f"index must be >= 1, got {n}")
    return Word(tuple([("b", 1)] * n + [("a", 1)]))


class WordFamily(Value):
    """A candidate prefix-free family, given by an index rule and a bound.

    rule=None stands for omega, the default family b^n a; the rule is looked
    up when a word is asked for, not held.
    """

    __slots__ = ("rule", "max_index")

    def __init__(self, rule: Optional[Callable[[int], Word]] = None, max_index: int = 50):
        init_field(self, "rule", rule)
        init_field(self, "max_index", max_index)

    def word(self, n: int) -> Word:
        if not 1 <= n <= self.max_index:
            raise BadIndex(f"index {n} outside 1..{self.max_index}")
        return omega(n) if self.rule is None else self.rule(n)


DEFAULT_FAMILY = WordFamily()


def theta(n: int, fam: WordFamily = DEFAULT_FAMILY) -> Word:
    """w_1 r_1 ... w_n r_n where r_k is w_k written backwards, freely reduced:
    the expansion of the symbol word S1.S2...Sn."""
    if n < 1:
        raise BadIndex(f"index must be >= 1, got {n}")
    return expand(SymbolWord(tuple((k, 1) for k in range(1, n + 1))), fam)


def is_prefix_free(fam: WordFamily) -> bool:
    """Pairwise initial-segment scan over the family up to its bound."""
    words = [reduce(fam.word(n)) for n in range(1, fam.max_index + 1)]
    for i, j in itertools.combinations(range(len(words)), 2):
        if words[i].is_prefix_of(words[j]) or words[j].is_prefix_of(words[i]):
            return False
    return True


Syllable = Tuple[int, int]  # (family or generator index, exponent +-1)


class SymbolWord(Value):
    """Word in the abstract doubled-word symbols, prior to expansion."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Tuple[Syllable, ...] = ()):
        init_field(self, "syllables", syllables)

    def is_reduced(self) -> bool:
        return all(
            not (x[0] == y[0] and x[1] == -y[1])
            for x, y in zip(self.syllables, self.syllables[1:])
        )

    def to_string(self) -> str:
        if not self.syllables:
            return "e"
        return ".".join(f"S{n}" if e == 1 else f"S{n}^-1" for n, e in self.syllables)


def doubled_word(n: int, fam: WordFamily) -> Word:
    """The block w_n r_n that a positive syllable stands for."""
    wn = fam.word(n)
    return wn * reverse(wn)


def expand(sw: SymbolWord, fam: WordFamily) -> Word:
    """Substitute each syllable by its {a,b}-block and freely reduce."""
    if not sw.is_reduced():
        raise NotReduced("symbol word has adjacent cancelling syllables")
    out = EMPTY
    for n, e in sw.syllables:
        block = doubled_word(n, fam)
        out = out * (block if e == 1 else block.inverse())
    return reduce(out)


def _outer_letters_survive(left: Word, right: Word) -> bool:
    """Check the pair reduction left*right keeps its first and last letters."""
    cat = left * right
    red = reduce(cat)
    return (
        len(red) >= 2
        and red.letters[0] == cat.letters[0]
        and red.letters[-1] == cat.letters[-1]
    )


class VerificationReport(Value):
    """Outcome of the bounded free-generation check.

    This is bounded verification over the stated ranges, not a proof for the
    infinite family.
    """

    __slots__ = (
        "max_index", "max_syllables", "words_checked", "pairs_checked",
        "all_nonempty", "outer_letters_ok", "counterexample",
    )

    @property
    def verified(self) -> bool:
        return self.all_nonempty and self.outer_letters_ok


def _join(left: Tuple[Letter, ...], right: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    """The letters of reduce(left * right) for reduced left and right: only
    letters at the junction can cancel."""
    k, n = 0, min(len(left), len(right))
    while k < n and left[-1 - k][0] == right[k][0] and left[-1 - k][1] == -right[k][1]:
        k += 1
    return left[: len(left) - k] + right[k:]


V = TypeVar("V")  # the value a walk carries: letters, a matrix, or both


def _products(
    factors: Sequence[Tuple[tuple, V]], max_syllables: int, join: Callable[[V, V], V]
) -> Iterator[Tuple[tuple, V]]:
    """Every reduced product of 1..max_syllables factors, as (symbols, value).

    factors holds (symbol, value) pairs, a symbol being a Syllable or a
    Letter; the symbol (i, -e) names the inverse of the factor (i, e), and a
    product is reduced when no symbol is followed by its inverse. A product
    of one factor has that factor's value, and a child, its parent times one
    factor, has the value join(parent's value, factor's value): on reduced
    letters _join reduces only the junction, which by confluence gives the
    normal form of the whole product.

    The walk is depth first, with an explicit stack: each product comes
    before its children, and the children follow the order of factors. So
    when a product of k factors comes, the latest earlier products of
    1..k-1 factors are its prefixes, and the products of each length come
    in lexicographic order by the positions of their factors. The stack
    holds at most max_syllables * len(factors) products.
    """
    if max_syllables < 1:
        return
    stack = [((s,), f) for s, f in reversed(factors)]
    while stack:
        symbols, value = stack.pop()
        yield symbols, value
        if len(symbols) < max_syllables:
            cancelling = (symbols[-1][0], -symbols[-1][1])
            for s, f in reversed(factors):
                if s != cancelling:
                    stack.append((symbols + (s,), join(value, f)))


def _pair_survives(s: Syllable, t: Syllable, fam: WordFamily) -> bool:
    """The outer-letter check of adjacent syllables s, t of opposite signs:
    (r_n, r_m^-1) at a +- change, (w_n^-1, w_m) at a -+ change."""
    (n1, e1), (n2, _) = s, t
    if e1 == 1:
        return _outer_letters_survive(reverse(fam.word(n1)), reverse(fam.word(n2)).inverse())
    return _outer_letters_survive(fam.word(n1).inverse(), fam.word(n2))


def _least_empty_word(
    blocks: Sequence[Tuple[Syllable, Tuple[Letter, ...]]], max_syllables: int
) -> Optional[Tuple[Syllable, ...]]:
    """The least reduced symbol word, by (length, syllables), of 1..
    max_syllables syllables that expands to the empty word, or None.

    One walk of _products to ceil(max_syllables / 2) syllables gives the
    halves, filed by syllable count, and the suffixes also by (count,
    letters). A reduced word of k syllables is u v, with |u| = ceil(k/2),
    |v| = floor(k/2) and the last syllable of u not the inverse of the first
    of v; its letters are the reduction of u's letters times v's, which is
    empty exactly when v's letters are the inverse of u's, both being
    reduced. The walk is preorder over the sorted blocks, so at each length
    the halves come in lexicographic order: the first u with a match, joined
    to its least matching v, is the least empty word of length k, and the
    first length that has one gives the least of all.
    """
    halves = defaultdict(list)
    suffixes = defaultdict(list)
    suffixes[0, ()].append(())
    for syllables, letters in _products(blocks, (max_syllables + 1) // 2, _join):
        halves[len(syllables)].append((syllables, letters))
        suffixes[len(syllables), letters].append(syllables)
    for k in range(1, max_syllables + 1):
        for u, letters in halves[(k + 1) // 2]:
            inverse = tuple((g, -e) for g, e in reversed(letters))
            cancelling = (u[-1][0], -u[-1][1])
            for v in suffixes.get((k // 2, inverse), ()):
                if not v or v[0] != cancelling:
                    return u + v
    return None


def verify_free_generation(
    fam: WordFamily, max_syllables: int
) -> VerificationReport:
    """Check that every nonempty reduced symbol word of up to max_syllables
    syllables expands to a nonempty reduced {a,b}-word, and that every
    adjacent-pair reduction keeps its outermost letters.

    The adjacent pairs are (r_{n_i}, r_{n_{i+1}}^-1) at a +- sign change and
    (w_{n_i}^-1, w_{n_{i+1}}) at a -+ sign change; equal adjacent signs need
    no reduction since the blocks contain only positive letters.

    No word is walked one by one. With m = max_index and K = max_syllables,
    there are 2m(2m-1)^(k-1) reduced words of k syllables, and a given
    sign-change pair (s, t) of different indices, one of 2m(m-1), sits at a
    given one of the k-1 junctions of (2m-1)^(k-2) of them. So
    words_checked = sum_{k=1..K} 2m(2m-1)^(k-1) and
    pairs_checked = sum_{k=2..K} (k-1) 2m(m-1)(2m-1)^(k-2), counting every
    occurrence of a pair in every word.

    Every pair is itself a word of two syllables, so when K >= 2 the pairs
    pass exactly when all 2m(m-1) of them pass. They are checked once each,
    in sorted order, up to the first that fails, which is then the least
    word with a failing pair. _least_empty_word finds the least empty word
    from words of half the length. The counterexample is the lesser of the
    two by (length, syllables), which is the first failing word in
    breadth-first order over the sorted alphabet.
    """
    if not is_prefix_free(fam):
        raise PrefixFreeViolated(
            f"family is not prefix-free up to index {fam.max_index}"
        )
    m = fam.max_index
    words = sum(2 * m * (2 * m - 1) ** (k - 1) for k in range(1, max_syllables + 1))
    pairs = sum((k - 1) * 2 * m * (m - 1) * (2 * m - 1) ** (k - 2)
                for k in range(2, max_syllables + 1))
    alphabet = sorted((n, e) for n in range(1, m + 1) for e in (1, -1))
    failing = None
    if max_syllables > 1:
        changes = ((s, t) for s in alphabet for t in alphabet if s[0] != t[0] and s[1] != t[1])
        failing = next((pair for pair in changes if not _pair_survives(*pair, fam)), None)
    blocks = [(s, expand(SymbolWord((s,)), fam).letters) for s in alphabet]
    empty = _least_empty_word(blocks, max_syllables)
    least = min((w for w in (failing, empty) if w is not None),
                key=lambda w: (len(w), w), default=None)
    counterexample = None if least is None else SymbolWord(least).to_string()
    return VerificationReport(m, max_syllables, words, pairs,
                              empty is None, failing is None, counterexample)
