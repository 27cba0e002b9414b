import pytest
from hypothesis import given, settings, strategies as st

from whitehead.bases import Automorphism
from whitehead.cayley_gersten import (
    DecoratedPath,
    VertexSet,
    build_gersten_graph,
    distance,
    is_translator,
    krstic_translator,
    left_forest_component,
    left_geodesic,
    left_step,
    left_tree_closure,
    represent,
    right_forest_component,
    right_geodesic,
    right_step,
    right_tree_closure,
    to_dot,
)
from whitehead.errors import LimitExceeded, PreconditionViolated, RankMismatch
from whitehead.lengthfn import WordSet, length_report
from whitehead.search import SearchLimits
from whitehead.words import CyclicWord, Word, cyclic_canonical, multiply

from helpers import random_automorphism, random_cyclic_word, random_word


def aut(rank, *texts):
    return Automorphism.from_images(rank, [Word.parse(rank, t) for t in texts])


def vs(rank, *texts):
    return VertexSet.of(rank, texts)


def texts(vset):
    return sorted(w.to_text() or "1" for w in vset)


X2 = Automorphism.identity(2)
Y_AB = aut(2, "ab", "b")


class TestVertexSet:
    def test_requires_identity(self):
        with pytest.raises(ValueError):
            VertexSet.of(2, ["a", "b"])

    def test_json_round_trip(self):
        v = vs(2, "", "b", "ab")
        again = VertexSet.from_json_dict(2, v.to_json_dict())
        assert again == v
        assert v.to_json_dict() == {"vertices": ["", "b", "ab"]}

    def test_sorted_is_shortlex(self):
        v = vs(2, "", "ab", "A", "b")
        assert [w.to_text() for w in v.sorted()] == ["", "b", "A", "ab"]

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            VertexSet(2, frozenset([Word.identity(2), Word.parse(3, "c")]))


class TestGeodesics:
    def test_left_geodesic_identity_basis(self):
        path = left_geodesic(X2, Word.identity(2), Word.parse(2, "ab"))
        assert [w.to_text() for w in path] == ["", "b", "ab"]

    def test_right_geodesic_identity_basis(self):
        path = right_geodesic(X2, Word.identity(2), Word.parse(2, "ab"))
        assert [w.to_text() for w in path] == ["", "a", "ab"]

    def test_left_geodesic_skewed_basis(self):
        # steps multiply images on the left: 1, then ab.1, then b.ab
        path = left_geodesic(Y_AB, Word.identity(2), Word.parse(2, "bab"))
        assert [w.to_text() for w in path] == ["", "ab", "bab"]

    def test_endpoints(self):
        src = Word.parse(2, "ba")
        dst = Word.parse(2, "aB")
        path = left_geodesic(Y_AB, src, dst)
        assert path[0] == src and path[-1] == dst

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_left_geodesic_translates_on_the_right(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_automorphism(2, rng.randint(0, 2), rng)
        src = random_word(2, rng.randint(0, 3), rng)
        dst = random_word(2, rng.randint(0, 3), rng)
        t = random_word(2, rng.randint(0, 3), rng)
        base = left_geodesic(x, src, dst)
        moved = left_geodesic(x, multiply(src, t), multiply(dst, t))
        assert moved == tuple(multiply(v, t) for v in base)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_right_geodesic_translates_on_the_left(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        y = random_automorphism(2, rng.randint(0, 2), rng)
        src = random_word(2, rng.randint(0, 3), rng)
        dst = random_word(2, rng.randint(0, 3), rng)
        t = random_word(2, rng.randint(0, 3), rng)
        base = right_geodesic(y, src, dst)
        moved = right_geodesic(y, multiply(t, src), multiply(t, dst))
        assert moved == tuple(multiply(t, v) for v in base)


class TestClosures:
    def test_left_closure_collects_suffix_vertices(self):
        got = left_tree_closure(X2, [Word.parse(2, "ab")])
        assert sorted(w.to_text() for w in got) == ["", "ab", "b"]

    def test_right_closure_collects_prefix_vertices(self):
        got = right_tree_closure(X2, [Word.parse(2, "ab")])
        assert sorted(w.to_text() for w in got) == ["", "a", "ab"]

    def test_closure_is_connected(self):
        words = [Word.parse(2, t) for t in ["ab", "BAb", "aa"]]
        closed = left_tree_closure(Y_AB, words)
        assert left_forest_component(Y_AB, closed) == closed
        closed_r = right_tree_closure(Y_AB, words)
        assert right_forest_component(Y_AB, closed_r) == closed_r

    def test_component_stops_at_gaps(self):
        # aa is not a left neighbor of the identity, a is missing
        verts = frozenset([Word.identity(2), Word.parse(2, "aa")])
        assert left_forest_component(X2, verts) == frozenset([Word.identity(2)])


class TestKrsticTranslator:
    def test_frozen_example(self):
        v = krstic_translator(X2, Y_AB)
        assert texts(v) == ["1", "A", "B", "BA", "ab", "b"]
        assert is_translator(X2, Y_AB, v)

    def test_identity_pair_rank2(self):
        v = krstic_translator(X2, X2)
        assert texts(v) == ["1", "A", "B", "a", "b"]
        assert is_translator(X2, X2, v)

    def test_identity_pair_rank1(self):
        one = Automorphism.identity(1)
        v = krstic_translator(one, one)
        assert texts(v) == ["1", "A", "a"]
        assert is_translator(one, one, v)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            krstic_translator(X2, Automorphism.identity(3))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_pairs_give_translators(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_automorphism(2, rng.randint(0, 3), rng)
        y = random_automorphism(2, rng.randint(0, 3), rng)
        assert is_translator(x, y, krstic_translator(x, y))


class TestIsTranslator:
    def test_right_disconnection_fails(self):
        assert not is_translator(X2, Y_AB, vs(2, "", "a", "b"))

    def test_generation_fails(self):
        assert not is_translator(X2, X2, vs(2, "", "a", "aa"))

    def test_small_positives(self):
        assert is_translator(X2, Y_AB, vs(2, "", "b", "ab"))
        assert is_translator(X2, Y_AB, vs(2, "", "b", "A"))
        assert is_translator(X2, X2, vs(2, "", "a", "b"))


class TestGerstenGraph:
    def graph(self):
        return build_gersten_graph(X2, Y_AB, vs(2, "", "b", "ab"))

    def test_edges(self):
        g = self.graph()
        one = Word.identity(2)
        b = Word.parse(2, "b")
        ab = Word.parse(2, "ab")
        assert g.x_edges == frozenset({(2, one), (1, b)})
        assert g.y_edges == frozenset({(one, 1), (one, 2)})
        assert g.x_head((1, b)) == ab
        assert g.y_head((one, 1)) == ab

    def test_valences(self):
        g = self.graph()
        assert g.valence(Word.identity(2)) == 3
        assert g.valence(Word.parse(2, "b")) == 3
        assert g.valence(Word.parse(2, "ab")) == 2

    def test_valence_ge3_excludes_base(self):
        g = self.graph()
        assert texts(g.valence_ge3()) == ["b"]

    def test_stars(self):
        g = self.graph()
        assert texts(g.x_tails(1)) == ["b"]
        assert texts(g.x_heads(1)) == ["ab"]
        assert texts(g.x_tails(-1)) == ["ab"]
        assert texts(g.x_tails(2)) == ["1"]
        assert texts(g.y_tails(1)) == ["1"]
        assert texts(g.y_tails(-1)) == ["ab"]
        assert texts(g.y_tails(2)) == ["1"]
        assert texts(g.y_heads(2)) == ["b"]

    def test_star_duality(self):
        g = build_gersten_graph(X2, Y_AB, krstic_translator(X2, Y_AB))
        for c in (1, 2, -1, -2):
            assert g.x_heads(c) == g.x_tails(-c)
            assert g.y_heads(c) == g.y_tails(-c)

    def test_dot_output(self):
        expected = (
            "digraph gersten {\n"
            "  rankdir=LR;\n"
            '  "1";\n'
            '  "b";\n'
            '  "ab";\n'
            '  "b" -> "ab" [label="x1"];\n'
            '  "1" -> "b" [label="x2"];\n'
            '  "1" -> "ab" [label="y1"];\n'
            '  "1" -> "b" [label="y2"];\n'
            "}\n"
        )
        assert to_dot(self.graph()) == expected


class TestDistance:
    def test_same_basis_rank2(self):
        res = distance(X2, X2)
        assert res.distance == 0
        assert texts(res.witness) == ["1", "a", "b"]
        assert res.kappa == 2

    def test_same_nonidentity_basis(self):
        res = distance(Y_AB, Y_AB)
        assert res.distance == 0
        assert texts(res.witness) == ["1", "ab", "b"]

    def test_frozen_example(self):
        res = distance(X2, Y_AB)
        assert res.distance == 1
        assert texts(res.witness) == ["1", "ab", "b"]
        assert res.kappa == 2

    def test_rank1(self):
        one = Automorphism.identity(1)
        assert distance(one, one).distance == 0

    def test_state_budget(self):
        with pytest.raises(LimitExceeded):
            distance(X2, Y_AB, limits=SearchLimits(max_states=2))

    def test_size_cap(self):
        with pytest.raises(LimitExceeded):
            distance(X2, Y_AB, max_size=2)

    def test_negative_size_cap_rejected(self):
        with pytest.raises(ValueError):
            distance(X2, Y_AB, max_size=-3)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_pairs(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_automorphism(2, rng.randint(0, 2), rng)
        y = random_automorphism(2, rng.randint(0, 2), rng)
        res = distance(x, y, limits=SearchLimits(max_states=200_000))
        assert res.distance >= 0
        assert is_translator(x, y, res.witness)
        if res.kappa == 2:
            assert len(res.witness) == 3
        else:
            assert res.distance == res.kappa == len(res.witness) - 1


def walk_and_check(path: DecoratedPath, graph) -> None:
    """Continuity, membership, and reducedness of both labels."""
    verts = graph.vertices.vertices
    pos = None
    start = None
    for s in path.steps:
        at = s[2] if s[0] == "x" else s[1]
        assert at in verts
        if pos is None:
            start = at
        else:
            assert at == pos, "steps do not chain"
        if s[0] == "x":
            pos = left_step(graph.left, s[1], at)
        else:
            pos = right_step(graph.right, at, s[2])
        assert pos in verts
    if path.steps:
        assert pos == start, "path is not closed"
        if path.kind == "straight":
            assert start == Word.identity(graph.rank)
    left = path.left_label_codes()
    right = path.right_label_codes()
    if path.kind == "straight":
        assert len(Word(graph.rank, left)) == len(left)
        assert len(Word(graph.rank, right)) == len(right)
    else:
        assert len(CyclicWord(graph.rank, left)) == len(left)
        assert len(CyclicWord(graph.rank, right)) == len(right)


class TestRepresent:
    def graph(self):
        return build_gersten_graph(X2, Y_AB, krstic_translator(X2, Y_AB))

    def test_commutator_class(self):
        g = self.graph()
        words = WordSet.parse(2, ["~abAB"])
        res = represent(words, g)
        path = res.paths[0]
        walk_and_check(path, g)
        assert path.left_label_codes() == (1, 2, -1, -2)
        for i in (1, 2):
            assert res.counts.x_marginal(i) == 2
            assert res.counts.y_marginal(i) == 2

    def test_straight_word_labels(self):
        g = self.graph()
        words = WordSet.parse(2, ["abb"])
        res = represent(words, g)
        path = res.paths[0]
        walk_and_check(path, g)
        entry = Word.parse(2, "abb")
        left = Word(2, path.left_label_codes())
        assert left == g.left.apply_backward(entry)
        right = Word(2, path.right_label_codes())
        assert g.right.apply(right) == entry.inverse()

    def test_identity_entry_gives_empty_path(self):
        g = self.graph()
        res = represent(WordSet.parse(2, [""]), g)
        assert res.paths[0].steps == ()
        assert res.counts.x_counts == {} and res.counts.y_counts == {}

    def test_counts_live_on_real_edges(self):
        g = self.graph()
        words = WordSet.parse(2, ["abb", "~aabb"])
        res = represent(words, g)
        assert set(res.counts.x_counts) <= set(g.x_edges)
        assert set(res.counts.y_counts) <= set(g.y_edges)

    def test_marginals_split_both_reports(self):
        g = self.graph()
        words = WordSet.parse(2, ["abb", "~aabb", "~abAB"])
        res = represent(words, g)
        rx = length_report(words, X2)
        ry = length_report(words, Y_AB)
        assert tuple(res.counts.x_marginal(i) for i in (1, 2)) == rx.per_letter
        assert tuple(res.counts.y_marginal(i) for i in (1, 2)) == ry.per_letter

    def test_needs_translator(self):
        g = build_gersten_graph(X2, Y_AB, vs(2, "", "a", "b"))
        with pytest.raises(PreconditionViolated):
            represent(WordSet.parse(2, ["a"]), g)

    def test_cyclic_right_label_is_conjugate_inverse(self):
        g = self.graph()
        entry = CyclicWord.parse(2, "aabb")
        res = represent(WordSet(2, (entry,)), g)
        path = res.paths[0]
        walk_and_check(path, g)
        image = g.right.apply(Word(2, path.right_label_codes()))
        assert cyclic_canonical(image) == entry.inverse()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_marginals_are_exact(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        x = random_automorphism(2, rng.randint(0, 2), rng)
        y = random_automorphism(2, rng.randint(0, 2), rng)
        entries = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                entries.append(random_word(2, rng.randint(1, 6), rng))
            else:
                entries.append(random_cyclic_word(2, rng.randint(1, 6), rng))
        words = WordSet(2, tuple(entries))
        g = build_gersten_graph(x, y, krstic_translator(x, y))
        res = represent(words, g)
        rx = length_report(words, x)
        ry = length_report(words, y)
        assert tuple(res.counts.x_marginal(i) for i in (1, 2)) == rx.per_letter
        assert tuple(res.counts.y_marginal(i) for i in (1, 2)) == ry.per_letter
        for path in res.paths:
            walk_and_check(path, g)
