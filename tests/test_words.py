"""Word layer: reduction, cyclic canonical forms, parsing, kernels.

The kernel properties compare each tuple kernel in ``whitehead._kernels``
against a few-line brute-force reference written here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from whitehead import _kernels
from whitehead.bases import enumerate_signed_permutations
from whitehead.errors import InvalidLetter, RankMismatch
from whitehead.words import (
    Alphabet,
    CyclicWord,
    Letter,
    Word,
    cyclic_canonical,
    format_word,
    letter_count,
    multiply,
    parse_word,
)


@st.composite
def rank_and_codes(draw, max_rank=4, max_len=24):
    rank = draw(st.integers(1, max_rank))
    letters = [c for c in range(-rank, rank + 1) if c != 0]
    codes = draw(st.lists(st.sampled_from(letters), max_size=max_len))
    return rank, codes


def brute_reduce(codes):
    """Delete the first cancelling adjacent pair until none is left."""
    out = list(codes)
    while True:
        for t in range(len(out) - 1):
            if out[t] == -out[t + 1]:
                del out[t:t + 2]
                break
        else:
            return out


class TestParsing:
    def test_round_trip(self):
        w = Word.parse(3, "abCba")
        assert w.to_text() == "abCba"
        assert w.codes == (1, 2, -3, 2, 1)

    def test_identity_forms(self):
        assert Word.parse(2, "").is_identity()
        assert Word.parse(2, "1").is_identity()
        assert Word.parse(2, "aA").is_identity()
        assert Word.identity(2).to_text() == ""

    def test_rejects_digits_inside_words(self):
        with pytest.raises(InvalidLetter):
            Word.parse(2, "ab9")

    def test_rejects_letters_beyond_rank(self):
        with pytest.raises(InvalidLetter):
            Word.parse(2, "abc")

    def test_rejects_whitespace(self):
        with pytest.raises(InvalidLetter):
            Word.parse(2, "a b")

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            Word.parse(0, "")

    def test_cyclic_marker(self):
        w = parse_word(2, "~abAB")
        assert isinstance(w, CyclicWord)
        assert format_word(w) == "~abAB"
        assert isinstance(parse_word(2, "abAB"), Word)

    def test_alphabet_iterates_in_letter_order(self):
        assert [l.code for l in Alphabet(2).letters()] == [1, 2, -1, -2]


class TestWordValues:
    def test_construction_reduces(self):
        assert Word(2, (1, 2, -2, 2)).codes == (1, 2)

    def test_straight_and_cyclic_never_equal(self):
        assert Word.parse(2, "ab") != CyclicWord.parse(2, "ab")
        assert len({Word.parse(2, "ab"), CyclicWord.parse(2, "ab")}) == 2

    def test_immutable(self):
        w = Word.parse(2, "ab")
        with pytest.raises(AttributeError):
            w.codes = ()

    def test_multiply_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            multiply(Word.parse(2, "a"), Word.parse(3, "a"))

    def test_letter_count(self):
        w = Word.parse(2, "abAbb")
        assert letter_count(w) == (2, 3)
        assert letter_count(w, 2) == 3

    def test_letter_inverse(self):
        assert Letter(1, 1).inverse() == Letter(1, -1)
        assert Letter.from_code(-2).code == -2

    def test_sort_order_follows_letter_order(self):
        # a < b < A < B, shorter first
        texts = ["ba", "A", "aB", "ab", "b", "a"]
        ordered = sorted(Word.parse(2, t) for t in texts)
        assert [w.to_text() for w in ordered] == ["a", "b", "A", "ab", "aB", "ba"]


class TestCyclicWords:
    def test_canonical_rotation(self):
        assert CyclicWord.parse(2, "baBA").to_text() == "aBAb"
        assert CyclicWord.parse(2, "bab").to_text() == "abb"

    def test_cyclic_reduction(self):
        assert cyclic_canonical(Word.parse(2, "Babb")).to_text() == "ab"
        assert CyclicWord.parse(2, "aBA").to_text() == "B"
        assert CyclicWord.parse(2, "aA").is_identity()

    def test_rotations_agree(self):
        w = CyclicWord.parse(2, "abbAB")
        codes = w.codes
        for s in range(len(codes)):
            assert CyclicWord(2, codes[s:] + codes[:s]) == w


@given(rank_and_codes())
def test_reduce_matches_brute_force(rc):
    rank, codes = rc
    assert list(Word(rank, codes).codes) == brute_reduce(codes)


@given(rank_and_codes())
def test_word_times_inverse_is_identity(rc):
    rank, codes = rc
    w = Word(rank, codes)
    assert multiply(w, w.inverse()).is_identity()
    assert multiply(w.inverse(), w).is_identity()


@given(rank_and_codes(), rank_and_codes())
def test_multiply_associative_with_parse(rc1, rc2):
    rank = max(rc1[0], rc2[0])
    u, v = Word(rank, rc1[1]), Word(rank, rc2[1])
    assert multiply(u, v).codes == tuple(brute_reduce(list(u.codes) + list(v.codes)))


@given(rank_and_codes())
def test_double_inverse(rc):
    rank, codes = rc
    w = Word(rank, codes)
    assert w.inverse().inverse() == w


@given(rank_and_codes())
def test_cyclic_canonical_conjugation_invariant(rc):
    rank, codes = rc
    w = Word(rank, codes)
    for g in ([1], [-2] if rank >= 2 else [-1], [2, 1] if rank >= 2 else [1, 1]):
        conj = multiply(multiply(Word(rank, g), w), Word(rank, g).inverse())
        assert cyclic_canonical(conj) == cyclic_canonical(w)


@given(rank_and_codes())
def test_cyclic_inverse_involution(rc):
    rank, codes = rc
    w = CyclicWord(rank, codes)
    assert w.inverse().inverse() == w


def brute_least_rotation(keys):
    m = len(keys)
    if m == 0:
        return 0
    rots = [tuple(keys[(s + t) % m] for t in range(m)) for s in range(m)]
    return rots.index(min(rots))


def letter_keys(codes, rank):
    return tuple(c - 1 if c > 0 else rank - c - 1 for c in codes)


@given(rank_and_codes())
def test_free_reduce_matches_repeated_cancellation(rc):
    rank, codes = rc
    assert _kernels.free_reduce(tuple(codes)) == tuple(brute_reduce(codes))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_least_rotation_matches_brute_force(keys):
    best = brute_least_rotation(keys)
    m = len(keys)
    want = [keys[(best + t) % m] for t in range(m)]
    for seq in (tuple(keys), bytes(keys)):
        s = _kernels.least_rotation(seq)
        assert [seq[(s + t) % m] for t in range(m)] == want


@st.composite
def rank_codes_and_images(draw):
    rank, codes = draw(rank_and_codes())
    letters = [c for c in range(-rank, rank + 1) if c != 0]
    images = [
        tuple(brute_reduce(draw(st.lists(st.sampled_from(letters), max_size=5))))
        for _ in range(rank)
    ]
    return rank, codes, images


@given(rank_codes_and_images())
def test_substitute_matches_reduced_concatenation(rci):
    rank, codes, images = rci
    w = tuple(brute_reduce(codes))
    spelled = []
    for c in w:
        img = images[abs(c) - 1]
        spelled += img if c > 0 else [-d for d in reversed(img)]
    table = _kernels.build_subst_table(images)
    assert _kernels.substitute(w, table) == tuple(brute_reduce(spelled))


def brute_canonical(entries, cyclic, rank):
    """Least relabeled tuple over every signed permutation, by letter keys."""
    def least(codes):
        rots = [codes[s:] + codes[:s] for s in range(len(codes))] or [codes]
        return min(rots, key=lambda r: letter_keys(r, rank))

    cands = []
    for perm in enumerate_signed_permutations(rank):
        moved = [tuple(perm.apply_code(c) for c in w) for w in entries]
        cands.append(tuple(least(w) if cyc else w for w, cyc in zip(moved, cyclic)))
    return min(cands, key=lambda t: [letter_keys(w, rank) for w in t])


@given(
    st.integers(1, 4).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from([c for c in range(-rank, rank + 1) if c]),
                             max_size=8),
                    st.booleans(),
                    st.integers(0, 7),
                ),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_canonical_tuple_matches_brute_force(drawn):
    rank, raw = drawn
    entries, cyclic = [], []
    for codes, cyc, shift in raw:
        w = CyclicWord(rank, codes).codes if cyc else Word(rank, codes).codes
        if w:
            shift %= len(w)
            w = w[shift:] + w[:shift] if cyc else w
        entries.append(w)
        cyclic.append(cyc)
    got = _kernels.canonical_tuple(tuple(entries), tuple(cyclic), rank)
    assert got == brute_canonical(entries, cyclic, rank)
