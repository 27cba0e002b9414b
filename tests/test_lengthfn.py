"""Length functional, reports, and greedy descent."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from whitehead import _kernels
from whitehead.bases import (
    Automorphism,
    SignedPermutation,
    compose,
    invert_images,
    transform_deltas,
    transform_tables,
)
from whitehead.errors import KindMismatch, NotABasis, RankMismatch
from whitehead.lengthfn import (
    DescentResult,
    WordSet,
    _coordinates,
    check_same_shape,
    descend,
    in_coordinates,
    is_local_minimum,
    length_report,
    total_length,
)
from whitehead.search import level_set_component, minimize_tuple
from whitehead.words import CyclicWord, Word

from helpers import random_automorphism, random_cyclic_word, random_word


def ws(rank, *texts):
    return WordSet.parse(rank, texts)


class TestWordSet:
    def test_parse_and_kinds(self):
        s = ws(2, "abb", "~abAB")
        assert s.kinds() == ("straight", "cyclic")
        assert s.to_texts() == ("abb", "~abAB")

    def test_json_round_trip(self):
        s = ws(2, "abb", "~abAB", "")
        assert WordSet.from_json_dict(s.to_json_dict()) == s

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankMismatch):
            WordSet(2, (Word.parse(3, "c"),))

    def test_shape_check(self):
        check_same_shape(ws(2, "ab", "~b"), ws(2, "ba", "~a"))
        with pytest.raises(KindMismatch):
            check_same_shape(ws(2, "ab"), ws(2, "~ab"))
        with pytest.raises(KindMismatch):
            check_same_shape(ws(2, "ab"), ws(2, "ab", "b"))
        with pytest.raises(RankMismatch):
            check_same_shape(ws(2, "ab"), ws(3, "ab"))


class TestLengthReport:
    def test_identity_basis_counts_letters(self):
        rep = length_report(ws(2, "abb", "~abAB"), Automorphism.identity(2))
        assert rep.total == 7
        assert rep.per_letter == (3, 4)

    def test_cyclic_entries_measured_cyclically(self):
        # Babb conjugates to ab: cyclic length 2, straight length 4
        assert total_length(ws(2, "~Babb"), Automorphism.identity(2)) == 2
        assert total_length(ws(2, "Babb"), Automorphism.identity(2)) == 4

    def test_known_coordinates(self):
        y = Automorphism.from_images(2, (Word.parse(2, "ab"), Word.parse(2, "b")))
        assert total_length(ws(2, "abb"), y) == 2
        assert in_coordinates(ws(2, "abb"), y).to_texts() == ("ab",)

    def test_matches_direct_inverse_application(self):
        rng = random.Random(5)
        for _ in range(15):
            aut = random_automorphism(2, 3, rng)
            s = WordSet(2, (random_word(2, 6, rng), random_cyclic_word(2, 4, rng)))
            direct = sum(len(aut.inverse().apply(w)) for w in s)
            assert total_length(s, aut) == direct

    def test_per_letter_sums_to_total(self):
        rng = random.Random(9)
        for _ in range(15):
            aut = random_automorphism(3, 3, rng)
            s = WordSet(3, (random_word(3, 7, rng), random_cyclic_word(3, 5, rng)))
            rep = length_report(s, aut)
            assert sum(rep.per_letter) == rep.total

    def test_equivariance_under_basis_change(self):
        # measuring sigma(R) at sigma . Y gives the same report as R at Y
        rng = random.Random(31)
        for _ in range(10):
            sigma = random_automorphism(2, 3, rng)
            y = random_automorphism(2, 2, rng)
            r = WordSet(2, (random_word(2, 5, rng), random_cyclic_word(2, 4, rng)))
            moved = WordSet(2, tuple(sigma.apply(w) for w in r))
            assert length_report(moved, compose(sigma, y)) == length_report(r, y)


class TestDescend:
    def test_known_two_step_descent(self):
        res = descend(ws(2, "abb"))
        assert res.initial.total == 3
        assert res.final.total == 1
        assert len(res.path) == 2
        # exact first-improvement path through the fixed enumeration order
        first, second = res.path
        assert [w.to_text() for w in first.images()] == ["ab", "b"]
        assert first.multiplier == -2
        assert [w.to_text() for w in second.images()] == ["a", "ab"]
        assert second.multiplier == 1
        assert [w.to_text() for w in res.basis.forward] == ["ab", "abb"]
        assert in_coordinates(ws(2, "abb"), res.basis).to_texts() == ("b",)

    def test_descent_lands_on_local_minimum(self):
        res = descend(ws(2, "abb"))
        assert is_local_minimum(ws(2, "abb"), res.basis)
        assert not is_local_minimum(ws(2, "abb"), Automorphism.identity(2))

    def test_already_minimal_stays_put(self):
        res = descend(ws(2, "a", "b"))
        assert res.path == ()
        assert res.basis.is_identity()

    def test_commutator_minimal_everywhere(self):
        # the commutator class has length 4 at every rank-2 basis
        rng = random.Random(3)
        s = ws(2, "~abAB")
        for _ in range(10):
            basis = random_automorphism(2, rng.randrange(4), rng)
            assert total_length(s, basis) == 4
            assert is_local_minimum(s, basis)

    def test_rank_one_has_no_moves(self):
        res = descend(WordSet(1, (Word.parse(1, "aaa"),)))
        assert res.path == () and res.final.total == 3

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 3), st.randoms(use_true_random=False))
    def test_descent_monotone_and_minimal(self, rank, rng):
        s = WordSet(
            rank,
            (random_word(rank, rng.randrange(1, 9), rng),
             random_cyclic_word(rank, rng.randrange(2, 7), rng)),
        )
        res = descend(s)
        assert res.final.total <= res.initial.total
        assert is_local_minimum(s, res.basis)
        assert total_length(s, res.basis) == res.final.total

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 3), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_planted_instances_recover_minimum(self, rank, depth, rng):
        # start from a short tuple, blow it up by an automorphism, descend back
        base = WordSet(rank, (random_word(rank, 2, rng),))
        phi = random_automorphism(rank, depth, rng)
        blown = WordSet(rank, tuple(phi.apply(w) for w in base))
        res = descend(blown)
        assert res.final.total <= total_length(base, Automorphism.identity(rank))


# -- substitution oracle -----------------------------------------------------
#
# The library scores transforms from the Whitehead graph.  The references
# below substitute the whole tuple under every transform instead and read
# off the length, as the scans the graph replaced did.


def substitution_deltas(entries, cyclic, rank, backward=False):
    total = sum(map(len, entries))
    for tt in transform_tables(rank):
        moved = _kernels.substitute_entries(entries, cyclic, tt.inv if backward else tt.fwd)
        yield tt, sum(map(len, moved)) - total


def reference_descend(words, start=None):
    basis = Automorphism.identity(words.rank) if start is None else start
    initial = length_report(words, basis)
    entries, cyclic = _coordinates(words, basis)
    path = []
    while True:
        for tt, delta in substitution_deltas(entries, cyclic, words.rank, backward=True):
            if delta < 0:
                entries = _kernels.substitute_entries(entries, cyclic, tt.inv)
                path.append(tt.descriptor)
                basis = compose(basis, tt.descriptor.to_automorphism())
                break
        else:
            break
    return DescentResult(basis, tuple(path), initial, length_report(words, basis))


def reference_is_local_minimum(words, basis):
    entries, cyclic = _coordinates(words, basis)
    return all(d >= 0 for _, d in substitution_deltas(entries, cyclic, words.rank, True))


def reference_invert_images(rank, images):
    tuples = tuple([w.codes for w in images])
    u_fwd = [(i,) for i in range(1, rank + 1)]
    while sum(map(len, tuples)) > rank:
        for tt, delta in substitution_deltas(tuples, (False,) * rank, rank):
            if delta < 0:
                tuples = tuple([_kernels.substitute(t, tt.fwd) for t in tuples])
                u_fwd = [_kernels.substitute(w, tt.fwd) for w in u_fwd]
                break
        else:
            raise NotABasis("stalls")
    codes = [t[0] for t in tuples]
    if sorted(abs(c) for c in codes) != list(range(1, rank + 1)):
        raise NotABasis("not a signed basis")
    table = SignedPermutation(rank, tuple(codes)).inverse().table()
    return tuple([Word(rank, _kernels.relabel(w, table)) for w in u_fwd])


def reference_level_set(words):
    cyclic = tuple([isinstance(w, CyclicWord) for w in words])
    start = _kernels.canonical_tuple(tuple([w.codes for w in words]), cyclic, words.rank)
    seen, queue = {start}, [start]
    for state in queue:
        for tt, delta in substitution_deltas(state, cyclic, words.rank):
            if delta == 0:
                moved = _kernels.substitute_entries(state, cyclic, tt.fwd)
                canon = _kernels.canonical_tuple(moved, cyclic, words.rank)
                if canon not in seen:
                    seen.add(canon)
                    queue.append(canon)
    return seen


@st.composite
def word_tuples(draw, ranks):
    """A WordSet of straight and cyclic entries, empty and one-letter ones
    included, as drawn letters reduced by the word constructors."""
    rank = draw(ranks)
    letters = st.sampled_from([c for c in range(-rank, rank + 1) if c])
    entries = draw(st.lists(
        st.tuples(st.booleans(), st.lists(letters, max_size=9)), min_size=1, max_size=4,
    ))
    return WordSet(rank, tuple([
        (CyclicWord if cyc else Word)(rank, codes) for cyc, codes in entries
    ]))


class TestWhiteheadGraphDeltas:
    @settings(deadline=None, max_examples=120)
    @given(word_tuples(st.integers(1, 5)), st.booleans())
    @example(WordSet.parse(3, ["", "~", "a", "~B", "~abAB", "abAB"]), False)
    @example(WordSet.parse(3, ["", "~", "a", "~B", "~abAB", "abAB"]), True)
    @example(WordSet.parse(5, ["~e", "E", "~abcde"]), True)
    def test_equal_substitution_deltas(self, words, backward):
        entries, cyclic = _coordinates(words, Automorphism.identity(words.rank))
        graph = [(tt.descriptor, d) for tt, d in
                 transform_deltas(entries, cyclic, words.rank, backward)]
        assert graph == [(tt.descriptor, d) for tt, d in
                         substitution_deltas(entries, cyclic, words.rank, backward)]

    def test_rank_one_has_no_deltas(self):
        assert list(transform_deltas(((1, 1),), (False,), 1)) == []


class TestAgainstSubstitution:
    @settings(deadline=None, max_examples=60)
    @given(word_tuples(st.integers(2, 4)), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_descend(self, words, depth, rng):
        start = random_automorphism(words.rank, depth, rng)
        got, want = descend(words, start), reference_descend(words, start)
        assert got.path == want.path
        assert got.basis == want.basis
        assert (got.initial, got.final) == (want.initial, want.final)
        assert descend(words).path == reference_descend(words).path

    @settings(deadline=None, max_examples=60)
    @given(word_tuples(st.integers(2, 4)), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_is_local_minimum(self, words, depth, rng):
        basis = random_automorphism(words.rank, depth, rng)
        assert is_local_minimum(words, basis) == reference_is_local_minimum(words, basis)
        low = descend(words, basis).basis
        assert is_local_minimum(words, low) and reference_is_local_minimum(words, low)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 4), st.integers(0, 5), st.randoms(use_true_random=False))
    def test_invert_images(self, rank, depth, rng):
        aut = random_automorphism(rank, depth, rng)
        assert invert_images(rank, aut.forward) == reference_invert_images(rank, aut.forward)
        # a tuple that is rarely a basis: both succeed alike or both refuse
        images = tuple([random_word(rank, rng.randint(1, 4), rng) for _ in range(rank)])
        try:
            want = reference_invert_images(rank, images)
        except NotABasis:
            with pytest.raises(NotABasis):
                invert_images(rank, images)
        else:
            assert invert_images(rank, images) == want

    @settings(deadline=None, max_examples=40)
    @given(word_tuples(st.integers(2, 3)))
    def test_level_set_component(self, words):
        minimal = minimize_tuple(words).minimal
        got = {tuple([w.codes for w in state]) for state in level_set_component(minimal)}
        assert got == reference_level_set(minimal)
