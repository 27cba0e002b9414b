"""Canonical forms, level-set walks, orbit certificates."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from whitehead.bases import Automorphism, SignedPermutation, enumerate_signed_permutations
from whitehead.errors import KindMismatch, LimitExceeded
from whitehead.lengthfn import WordSet, total_length
from whitehead.search import (
    OrbitCertificate,
    SearchLimits,
    _matching_permutation,
    canonical_form,
    canonical_with_permutation,
    level_set_component,
    minimize_tuple,
    orbit_equivalent,
    verify_certificate,
)
from whitehead.words import CyclicWord, Word

from helpers import random_automorphism, random_cyclic_word, random_word


def ws(rank, *texts):
    return WordSet.parse(rank, texts)


class TestCanonicalForm:
    def test_single_letter_relabels_to_first_generator(self):
        assert canonical_form(ws(2, "b")).to_texts() == ("a",)
        assert canonical_form(ws(2, "B")).to_texts() == ("a",)

    def test_commutator_class_is_its_own_canonical_form(self):
        assert canonical_form(ws(2, "~abAB")).to_texts() == ("~abAB",)
        # the inverse class relabels onto it
        assert canonical_form(ws(2, "~aBAb")).to_texts() == ("~abAB",)

    def test_permutation_witness_matches(self):
        s = ws(2, "ba", "~b")
        canon, perm = canonical_with_permutation(s)
        moved = WordSet(2, tuple(perm.apply(w) for w in s))
        assert canonical_form(s) == canon
        assert moved == canon

    def test_idempotent(self):
        rng = random.Random(2)
        for _ in range(20):
            s = WordSet(
                3, (random_word(3, 5, rng), random_cyclic_word(3, 4, rng))
            )
            c = canonical_form(s)
            assert canonical_form(c) == c

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 3), st.randoms(use_true_random=False))
    def test_invariant_under_any_relabeling(self, rank, rng):
        s = WordSet(rank, (random_word(rank, 6, rng), random_cyclic_word(rank, 4, rng)))
        perms = enumerate_signed_permutations(rank)
        p = perms[rng.randrange(len(perms))]
        moved = WordSet(rank, tuple(p.apply(w) for w in s))
        assert canonical_form(moved) == canonical_form(s)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    def test_permutation_is_first_enumerated_match(self, rank, rng):
        # short entries leave generators unused, so free targets get filled
        words = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                words.append(random_cyclic_word(rank, rng.randint(1, 6), rng))
            else:
                words.append(random_word(rank, rng.randint(0, 6), rng))
        s = WordSet(rank, tuple(words))
        entries, cyclic = [], []
        for w in s:
            cyc = isinstance(w, CyclicWord)
            shift = rng.randrange(len(w)) if cyc and len(w) else 0
            entries.append(w.codes[shift:] + w.codes[:shift])
            cyclic.append(cyc)
        state, perm = _matching_permutation(tuple(entries), tuple(cyclic), rank)
        canon = canonical_form(s)
        assert state == tuple([w.codes for w in canon])
        first = next(
            p for p in enumerate_signed_permutations(rank)
            if WordSet(rank, tuple(p.apply(w) for w in s)) == canon
        )
        assert perm == first

    def test_rank_eight_needs_no_enumeration(self):
        # 2^8 8! = 10,321,920 signed permutations; the product of four
        # commutators ties under several labelings
        s = ws(8, "~abABcdCDefEFghGH", "cgA", "~hd")
        start = time.perf_counter()
        canon, perm = canonical_with_permutation(s)
        elapsed = time.perf_counter() - start
        assert WordSet(8, tuple(perm.apply(w) for w in s)) == canon
        assert canonical_form(canon) == canon
        assert elapsed < 2.0


class TestMinimize:
    def test_two_step_example(self):
        res = minimize_tuple(ws(2, "abb"))
        assert res.report.total == 1
        assert res.minimal.to_texts() == ("b",)
        assert len(res.path) == 2

    def test_minimal_input_untouched(self):
        res = minimize_tuple(ws(2, "~abAB"))
        assert res.basis.is_identity()
        assert res.minimal.to_texts() == ("~abAB",)


class TestLevelSetComponent:
    def test_commutator_component_is_a_single_state(self):
        comp = level_set_component(ws(2, "~abAB"))
        assert len(comp) == 1

    def test_aabb_component(self):
        comp = level_set_component(ws(2, "~aabb"))
        assert {s.to_texts() for s in comp} == {("~aabb",), ("~abaB",)}

    def test_respects_state_budget(self):
        with pytest.raises(LimitExceeded):
            level_set_component(ws(2, "~aabb"), SearchLimits(max_states=1))

    def test_budget_overrun_names_the_level_set_phase(self):
        with pytest.raises(LimitExceeded) as exc:
            orbit_equivalent(ws(2, "~aabb"), ws(2, "~abaB"), SearchLimits(max_states=1))
        assert exc.value.phase == "level_set"
        assert (exc.value.states, exc.value.limit) == (1, 1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchLimits(max_states=-1)


class TestOrbitEquivalence:
    def test_spec_positive_pair(self):
        s1, s2 = ws(2, "abb"), ws(2, "a")
        cert = orbit_equivalent(s1, s2)
        assert cert is not None
        assert verify_certificate(cert, s1, s2)

    def test_spec_negative_pair_same_length(self):
        assert orbit_equivalent(ws(2, "~abAB"), ws(2, "~aabb")) is None

    def test_identity_equivalence(self):
        s = ws(2, "ab", "~b")
        cert = orbit_equivalent(s, s)
        assert cert is not None and verify_certificate(cert, s, s)

    def test_kind_mismatch_raises(self):
        with pytest.raises(KindMismatch):
            orbit_equivalent(ws(2, "ab"), ws(2, "~ab"))

    def test_not_equivalent_different_minima(self):
        assert orbit_equivalent(ws(2, "a"), ws(2, "abab")) is None

    def test_conjugates_are_equivalent_both_kinds(self):
        # inner automorphisms are automorphisms, so conjugates sit in one
        # orbit as straight words too
        assert orbit_equivalent(ws(2, "~bab"), ws(2, "~b")) is not None
        got = orbit_equivalent(ws(2, "bab"), ws(2, "b"))
        assert got is not None
        assert verify_certificate(got, ws(2, "bab"), ws(2, "b"))

    def test_certificate_json_round_trip(self):
        s1, s2 = ws(2, "abb"), ws(2, "a")
        cert = orbit_equivalent(s1, s2)
        again = OrbitCertificate.from_json_dict(2, cert.to_json_dict())
        assert again.transforms == cert.transforms
        assert again.permutation == cert.permutation
        assert verify_certificate(again, s1, s2)

    def test_budget_exhaustion_raises(self):
        # equal minima, different canonical forms: the walk must expand
        # past its one-state budget before it can conclude anything
        with pytest.raises(LimitExceeded):
            orbit_equivalent(ws(2, "~aabb"), ws(2, "~abAB"), SearchLimits(max_states=1))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 3), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_planted_pairs_always_certify(self, rank, depth, rng):
        k = rng.randint(1, 3)
        words = []
        for _ in range(k):
            if rng.random() < 0.5:
                words.append(random_cyclic_word(rank, rng.randint(2, 8), rng))
            else:
                words.append(random_word(rank, rng.randint(1, 8), rng))
        s1 = WordSet(rank, tuple(words))
        phi = random_automorphism(rank, depth, rng)
        s2 = WordSet(rank, tuple(phi.apply(w) for w in s1))
        cert = orbit_equivalent(s1, s2)
        assert cert is not None
        assert verify_certificate(cert, s1, s2)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 2), st.randoms(use_true_random=False))
    def test_symmetry_of_the_decision(self, rank, rng):
        a = WordSet(rank, (random_cyclic_word(rank, rng.randint(2, 6), rng),))
        b = WordSet(rank, (random_cyclic_word(rank, rng.randint(2, 6), rng),))
        fwd = orbit_equivalent(a, b)
        bwd = orbit_equivalent(b, a)
        assert (fwd is None) == (bwd is None)
