"""Free-group words over {a, b}, the prefix-free family b^n a, and the
exhaustive bounded verifier for free generation of the doubled-word sequence.

String form uses the case convention: 'a'/'b' are the generators, 'A'/'B'
their inverses, and 'e' the empty word.
"""

from __future__ import annotations

import itertools
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
    1..k-1 factors are its prefixes, and a caller that needs its parent's
    data keeps a list indexed by length. The stack holds at most
    max_syllables * len(factors) products.
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


def verify_free_generation(
    fam: WordFamily, max_syllables: int
) -> VerificationReport:
    """Exhaustively check that every nonempty reduced symbol word expands to a
    nonempty reduced {a,b}-word, and that every adjacent-pair reduction keeps
    its outermost letters.

    The adjacent pairs are (r_{n_i}, r_{n_{i+1}}^-1) at a +- sign change and
    (w_{n_i}^-1, w_{n_{i+1}}) at a -+ sign change; equal adjacent signs need
    no reduction since the blocks contain only positive letters.

    The symbol words are the reduced products of the blocks w_n r_n and their
    inverses, walked depth first by _products. A word has its parent's pairs
    plus at most one new adjacent pair, its last: the pair counts of its
    prefixes are kept in a list indexed by length, and each distinct pair
    verdict is computed once. pairs_checked counts every occurrence of a pair
    in every word. Only a word's last pair is checked: its other pairs are
    those of a shorter prefix, which the walk checks as that prefix's last.
    The counterexample is the failing word least by (length, syllables), so a
    failing prefix always wins over its extensions; the alphabet is sorted,
    so that word is the first failing one in breadth-first order.
    """
    if not is_prefix_free(fam):
        raise PrefixFreeViolated(
            f"family is not prefix-free up to index {fam.max_index}"
        )
    alphabet = sorted((n, e) for n in range(1, fam.max_index + 1) for e in (1, -1))
    blocks = [(s, expand(SymbolWord((s,)), fam).letters) for s in alphabet]
    verdicts = {}
    prefix_pairs = [0] * (max_syllables + 1)
    words = pairs = 0
    all_nonempty = outer_letters_ok = True
    least = None
    for syllables, letters in _products(blocks, max_syllables, _join):
        k = len(syllables)
        word_pairs, last_fails = prefix_pairs[k - 1], False
        if k > 1 and syllables[-2][1] != syllables[-1][1]:
            pair = syllables[-2:]
            if pair not in verdicts:
                verdicts[pair] = _pair_survives(*pair, fam)
            word_pairs, last_fails = word_pairs + 1, not verdicts[pair]
        prefix_pairs[k] = word_pairs
        words += 1
        pairs += word_pairs
        if not letters:
            all_nonempty = False
        if last_fails:
            outer_letters_ok = False
        if (last_fails or not letters) and (least is None or (k, syllables) < least):
            least = (k, syllables)
    counterexample = None if least is None else SymbolWord(least[1]).to_string()
    return VerificationReport(fam.max_index, max_syllables, words, pairs,
                              all_nonempty, outer_letters_ok, counterexample)
