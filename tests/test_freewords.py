import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schottky_limits import freewords
from schottky_limits.freewords import (
    DEFAULT_FAMILY,
    EMPTY,
    BadIndex,
    NotReduced,
    PrefixFreeViolated,
    SymbolWord,
    Word,
    WordFamily,
    _join,
    _products,
    doubled_word,
    expand,
    is_prefix_free,
    omega,
    reduce,
    reverse,
    theta,
    verify_free_generation,
)

from conftest import words
from oracles import ref_verify_free_generation, symbol_words


def all_b_rule(n):
    return Word(tuple([("b", 1)] * n))


def a_then_b_rule(n):
    return Word(tuple([("a", 1)] * n + [("b", 1)]))


def family_of(*ws):
    """The family whose n-th word is ws[n - 1], given as strings or Words."""
    ws = tuple(Word.from_string(w) if isinstance(w, str) else w for w in ws)
    return WordFamily(rule=lambda n: ws[n - 1], max_index=len(ws))


def reduced_words(max_len=3):
    letter = st.sampled_from([("a", 1), ("a", -1), ("b", 1), ("b", -1)])
    return (
        st.lists(letter, min_size=1, max_size=max_len)
        .map(lambda ls: Word(tuple(ls)))
        .filter(Word.is_reduced)
    )


class TestWord:
    def test_string_round_trip(self):
        for s in ("e", "a", "abAB", "bbaaBB"):
            assert Word.from_string(s).to_string() == s

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            Word.from_string("abc")

    def test_inverse(self):
        assert Word.from_string("ab").inverse() == Word.from_string("BA")

    @given(words())
    def test_inverse_involution(self, w):
        assert w.inverse().inverse() == w


class TestOmega:
    def test_first_words(self):
        assert omega(1) == Word.from_string("ba")
        assert omega(2) == Word.from_string("bba")

    def test_lengths(self):
        for n in range(1, 51):
            assert len(omega(n)) == n + 1

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            omega(0)


class TestReverse:
    def test_backwards_writing(self):
        assert reverse(omega(2)) == Word.from_string("abb")

    def test_empty(self):
        assert reverse(EMPTY) == EMPTY

    @given(words())
    def test_involution(self, w):
        assert reverse(reverse(w)) == w

    @given(words(), words())
    def test_anti_homomorphism(self, u, v):
        assert reverse(u * v) == reverse(v) * reverse(u)


class TestReduce:
    def test_cancelling_pair(self):
        assert reduce(Word.from_string("aA")) == EMPTY

    def test_outer_letters_survive(self):
        # ab times the inverse of bba: the boundary letters stay put
        w = Word.from_string("ab") * Word.from_string("abb").inverse()
        assert reduce(w) == Word.from_string("aBA")

    @given(words())
    def test_idempotent_and_nonincreasing(self, w):
        r = reduce(w)
        assert reduce(r) == r
        assert len(r) <= len(w)
        assert r.is_reduced()

    @given(words())
    @settings(max_examples=200)
    def test_word_times_inverse_cancels(self, w):
        assert reduce(w * w.inverse()) == EMPTY

    @given(words(), words())
    def test_reduction_is_congruence(self, u, v):
        assert reduce(u * v) == reduce(reduce(u) * reduce(v))


class TestTheta:
    def test_theta_1(self):
        assert theta(1) == Word.from_string("baab")

    def test_theta_2(self):
        assert theta(2) == Word.from_string("baabbbaabb")
        assert len(theta(2)) == 10

    def test_quadratic_lengths(self):
        for n in range(1, 21):
            assert len(theta(n, WordFamily(max_index=25))) == n * n + 3 * n

    def test_prefix_chain(self):
        fam = WordFamily(max_index=10)
        for n in range(1, 10):
            assert theta(n, fam).is_prefix_of(theta(n + 1, fam))

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            theta(0)
        with pytest.raises(BadIndex):
            theta(7, WordFamily(max_index=6))


class TestPrefixFree:
    def test_default_family(self):
        assert is_prefix_free(WordFamily(max_index=50))

    def test_powers_of_b_fail(self):
        assert not is_prefix_free(WordFamily(rule=all_b_rule, max_index=3))

    def test_a_then_b_family(self):
        assert is_prefix_free(WordFamily(rule=a_then_b_rule, max_index=50))


class TestExpand:
    def test_single_syllable(self):
        assert expand(SymbolWord(((1, 1),)), DEFAULT_FAMILY) == theta(1)

    def test_mixed_signs(self):
        sw = SymbolWord(((1, 1), (2, -1)))
        assert expand(sw, DEFAULT_FAMILY) == Word.from_string("baaBAABB")

    def test_unreduced_rejected(self):
        with pytest.raises(NotReduced):
            expand(SymbolWord(((1, 1), (1, -1))), DEFAULT_FAMILY)

    def test_single_syllable_lengths(self):
        fam = WordFamily(max_index=10)
        for n in range(1, 11):
            for e in (1, -1):
                assert len(expand(SymbolWord(((n, e),)), fam)) == 2 * (n + 1)

    def test_homomorphism_on_enumeration(self):
        fam = WordFamily(max_index=3)
        small = [sw for sw in symbol_words(3, 2)]
        for s in small[:40]:
            for t in small[:40]:
                joined = SymbolWord(s.syllables + t.syllables)
                if not joined.is_reduced():
                    continue
                assert expand(joined, fam) == reduce(
                    expand(s, fam) * expand(t, fam)
                )


class TestSymbolEnumeration:
    def test_counts(self):
        # 2N choices for the first syllable, 2N-1 for each further one
        got = sum(1 for _ in symbol_words(3, 3))
        assert got == 6 + 6 * 5 + 6 * 25

    def test_all_reduced_and_distinct(self):
        seen = set(symbol_words(2, 3))
        assert len(seen) == 4 + 4 * 3 + 4 * 9
        assert all(sw.is_reduced() for sw in seen)


class TestVerifyFreeGeneration:
    def test_small_exhaustive(self):
        rep = verify_free_generation(WordFamily(max_index=3), 3)
        assert rep.verified
        assert rep.words_checked == 186
        assert rep.counterexample is None

    def test_desk_scale(self):
        rep = verify_free_generation(WordFamily(max_index=6), 4)
        assert rep.verified
        assert rep.words_checked == 12 + 12 * 11 + 12 * 11**2 + 12 * 11**3

    def test_prefix_free_precondition(self):
        with pytest.raises(PrefixFreeViolated):
            verify_free_generation(WordFamily(rule=all_b_rule, max_index=3), 2)

    def test_alternative_family(self):
        rep = verify_free_generation(
            WordFamily(rule=a_then_b_rule, max_index=4), 3
        )
        assert rep.verified

    def test_doubled_word_blocks_are_positive(self):
        for n in range(1, 7):
            block = doubled_word(n, DEFAULT_FAMILY)
            assert all(e == 1 for _, e in block.letters)

    @pytest.mark.parametrize(
        "fam, max_syllables",
        [
            (WordFamily(max_index=3), 3),
            (WordFamily(max_index=4), 3),
            (WordFamily(max_index=6), 3),
            (WordFamily(max_index=6), 4),
            # unreduced words, whose adjacent-pair reductions lose an outer letter
            (family_of("aaA", "bAB", "BB"), 3),
            (family_of("AB", "b", "BBb"), 3),
        ],
        ids=["3/3", "4/3", "6/3", "6/4", "unreduced-1", "unreduced-2"],
    )
    def test_matches_reference(self, fam, max_syllables):
        got = verify_free_generation(fam, max_syllables)
        assert got == ref_verify_free_generation(fam, max_syllables)

    @given(st.lists(reduced_words(), min_size=3, max_size=3))
    @example(["ab", "AB", "aaa"])  # S1^-1.S2^-1 expands to the empty word
    @settings(max_examples=150, deadline=None)
    def test_mixed_sign_families_match_reference(self, ws):
        fam = family_of(*ws)
        assume(is_prefix_free(fam))
        assert verify_free_generation(fam, 3) == ref_verify_free_generation(fam, 3)

    @pytest.mark.parametrize(
        "fam",
        [WordFamily(max_index=4), family_of("ab", "AB", "aaa", "Ba")],
        ids=["default", "mixed-sign"],
    )
    def test_walk_letters_equal_expand(self, fam):
        alphabet = sorted((n, e) for n in range(1, 5) for e in (1, -1))
        blocks = [(s, expand(SymbolWord((s,)), fam).letters) for s in alphabet]
        walked = list(_products(blocks, 3, _join))
        symbols = [syllables for syllables, _ in walked]
        assert len(set(symbols)) == len(symbols)
        assert set(symbols) == {sw.syllables for sw in symbol_words(4, 3)}
        for syllables, letters in walked:
            assert letters == expand(SymbolWord(syllables), fam).letters
        # preorder: the latest earlier product one factor shorter is the parent
        latest = {0: ()}
        for syllables in symbols:
            assert latest[len(syllables) - 1] == syllables[:-1]
            latest[len(syllables)] = syllables


class TestHalfLengthEmptiness:
    """verify_free_generation counts in closed form, checks each sign-change
    pair once, and finds the least empty word from half-length words."""

    @given(st.lists(reduced_words(4), min_size=2, max_size=3), st.sampled_from([4, 5]))
    @example(["aa", "A"], 4)  # S1^-1.S2^-1.S2^-1 expands to the empty word
    @example(["A", "aaa"], 4)  # S1^-1.S1^-1.S1^-1.S2^-1 does
    @example(["B", "A", "bbaa"], 5)  # the least empty word has 5 syllables
    @example(["B", "A", "bbaa"], 6)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, ws, max_syllables):
        fam = family_of(*ws)
        assume(is_prefix_free(fam))
        got = verify_free_generation(fam, max_syllables)
        assert got == ref_verify_free_generation(fam, max_syllables)

    @pytest.mark.parametrize(
        "ws, max_syllables, counterexample",
        [
            (["aa", "A"], 4, "S1^-1.S2^-1.S2^-1"),
            (["A", "aaa"], 4, "S1^-1.S1^-1.S1^-1.S2^-1"),
            (["B", "A", "bbaa"], 4, None),
            (["B", "A", "bbaa"], 5, "S1^-1.S2^-1.S2^-1.S1^-1.S3^-1"),
            (["B", "A", "bbaa"], 6, "S1^-1.S2^-1.S2^-1.S1^-1.S3^-1"),
        ],
    )
    def test_empty_products_past_two_syllables(self, ws, max_syllables, counterexample):
        rep = verify_free_generation(family_of(*ws), max_syllables)
        assert rep.counterexample == counterexample
        assert rep.all_nonempty == (counterexample is None)

    def test_one_walk_to_half_length(self, monkeypatch):
        calls = {"_join": 0, "_pair_survives": 0}

        def counted(name):
            original = getattr(freewords, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(freewords, name, counted(name))
        rep = verify_free_generation(WordFamily(max_index=6), 4)
        assert rep.verified
        # 12 * 11 halves of two syllables; 12 * 5 sign-change pairs
        assert calls == {"_join": 132, "_pair_survives": 60}

    @pytest.mark.parametrize("max_syllables", [1, 2, 3, 4])
    def test_one_index_counts(self, max_syllables):
        fam = WordFamily(max_index=1)
        rep = verify_free_generation(fam, max_syllables)
        # S1 and S1^-1 each raised to the k-th power: no sign change
        assert (rep.words_checked, rep.pairs_checked) == (2 * max_syllables, 0)
        assert rep == ref_verify_free_generation(fam, max_syllables)
