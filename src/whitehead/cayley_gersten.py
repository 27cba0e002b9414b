"""Two-basis graphs on finite vertex sets of a free group.

Fix bases X and Y of the same free group.  A finite set V of group
elements containing the identity spans two edge families: left edges
v -> X(x).v and right edges v -> v.Y(y).  V is a *translator* between X
and Y when V.{1} generates the group and both edge families restrict to
spanning trees of V.  Translators are the geometry behind comparing the
two bases: ``krstic_translator`` always builds one, ``distance``
searches for the smallest ones, and ``represent`` threads word tuples
through one so that left and right edge traversals count the tuple's
letters in X- and Y-coordinates exactly.

Conventions fixed here and relied on elsewhere: the letter order is
generators before inverses, ties everywhere break by shortlex on that
order; a path step is (letter, vertex) on the left or (vertex, letter)
on the right; the left label of a path reads its left letters last step
first, the right label reads right letters in step order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .bases import Automorphism, _signed_letters, fold
from .errors import (
    LimitExceeded,
    PreconditionViolated,
    RankMismatch,
    TheoremViolation,
)
from .lengthfn import WordSet, length_report
from .search import SearchLimits
from .words import CyclicWord, Word, multiply


def _shortlex_min(words: Iterable[Word]) -> Word:
    return min(words, key=lambda w: w.sort_key())


@dataclass(frozen=True, slots=True)
class VertexSet:
    """A finite vertex set anchored at the identity."""

    rank: int
    vertices: FrozenSet[Word]

    def __post_init__(self):
        if Word.identity(self.rank) not in self.vertices:
            raise ValueError("vertex sets must contain the identity")
        for v in self.vertices:
            if not isinstance(v, Word) or v.rank != self.rank:
                raise RankMismatch(f"vertex {v!r} does not fit rank {self.rank}")

    def __contains__(self, w: Word) -> bool:
        return w in self.vertices

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.sorted())

    def sorted(self) -> Tuple[Word, ...]:
        return tuple(sorted(self.vertices, key=lambda w: w.sort_key()))

    def to_json_dict(self) -> dict:
        return {"vertices": [w.to_text() for w in self.sorted()]}

    @classmethod
    def from_json_dict(cls, rank: int, obj: dict) -> "VertexSet":
        return cls(rank, frozenset(Word.parse(rank, t) for t in obj["vertices"]))

    @classmethod
    def of(cls, rank: int, texts: Iterable[str]) -> "VertexSet":
        return cls(rank, frozenset(Word.parse(rank, t) for t in texts))

    def __repr__(self):
        return f"VertexSet({self.rank}, {{{', '.join(w.to_text() or '1' for w in self.sorted())}}})"


def left_step(x: Automorphism, c: int, v: Word) -> Word:
    return multiply(x.letter_image(c), v)


def right_step(y: Automorphism, v: Word, c: int) -> Word:
    return multiply(v, y.letter_image(c))


def left_geodesic(x: Automorphism, src: Word, dst: Word) -> Tuple[Word, ...]:
    """Vertices of the left-tree geodesic from src to dst, inclusive.

    The left tree translates on the right, so the path is the geodesic
    from the identity to dst.src^-1, shifted back onto src.
    """
    u = x.apply_backward(multiply(dst, src.inverse()))
    out = [src]
    v = src
    for c in reversed(u.codes):
        v = multiply(x.letter_image(c), v)
        out.append(v)
    return tuple(out)


def right_geodesic(y: Automorphism, src: Word, dst: Word) -> Tuple[Word, ...]:
    """Vertices of the right-tree geodesic from src to dst, inclusive."""
    u = y.apply_backward(multiply(src.inverse(), dst))
    out = [src]
    v = src
    for c in u.codes:
        v = multiply(v, y.letter_image(c))
        out.append(v)
    return tuple(out)


def left_tree_closure(x: Automorphism, words: Iterable[Word]) -> FrozenSet[Word]:
    """Union of left-tree geodesics from the identity to each word."""
    root = Word.identity(x.rank)
    out = {root}
    for w in words:
        out.update(left_geodesic(x, root, w))
    return frozenset(out)


def right_tree_closure(y: Automorphism, words: Iterable[Word]) -> FrozenSet[Word]:
    root = Word.identity(y.rank)
    out = {root}
    for w in words:
        out.update(right_geodesic(y, root, w))
    return frozenset(out)


def _walk(
    step, rank: int, vertices, root: Word, cut=()
) -> Dict[Word, Optional[Tuple[Word, int]]]:
    """Parent steps of the tree grown from the root inside the vertex set.

    Grows depth first along ``step(vertex, letter)`` over the signed
    letters, never crossing the edge between the two vertices in ``cut``.
    Maps each reached vertex to (parent, letter) and the root to None.
    When the edges restricted to the set form a forest, the map is that
    tree's parent map whatever the growth order.
    """
    parent: Dict[Word, Optional[Tuple[Word, int]]] = {root: None}
    stack = [root]
    letters = _signed_letters(rank)
    while stack:
        u = stack.pop()
        for c in letters:
            w = step(u, c)
            if w in vertices and w not in parent and not (u in cut and w in cut):
                parent[w] = (u, c)
                stack.append(w)
    return parent


def left_forest_component(
    x: Automorphism, vertices: FrozenSet[Word], root: Optional[Word] = None
) -> FrozenSet[Word]:
    """Component of the root in the left edges restricted to the set."""
    root = Word.identity(x.rank) if root is None else root
    return frozenset(_walk(lambda u, c: left_step(x, c, u), x.rank, vertices, root))


def right_forest_component(
    y: Automorphism, vertices: FrozenSet[Word], root: Optional[Word] = None
) -> FrozenSet[Word]:
    root = Word.identity(y.rank) if root is None else root
    return frozenset(_walk(lambda u, c: right_step(y, u, c), y.rank, vertices, root))


def krstic_translator(x: Automorphism, y: Automorphism) -> VertexSet:
    """The composite closure translator between two bases.

    Seeds with the identity and the right basis's images and their
    inverses, closes under left geodesics, right geodesics, left
    geodesics again, and finally keeps the right component of the
    identity.  The result is always a translator.
    """
    if x.rank != y.rank:
        raise RankMismatch(f"ranks {x.rank} and {y.rank} differ")
    seed = {Word.identity(y.rank)}
    for w in y.forward:
        seed.add(w)
        seed.add(w.inverse())
    s = left_tree_closure(x, seed)
    s = right_tree_closure(y, s)
    s = left_tree_closure(x, s)
    s = right_forest_component(y, s)
    return VertexSet(x.rank, s)


def is_translator(x: Automorphism, y: Automorphism, v: VertexSet) -> bool:
    """Identity present, complement generates, both restrictions are
    spanning trees (connected subforests of trees)."""
    if x.rank != y.rank or v.rank != x.rank:
        raise RankMismatch("ranks of bases and vertex set must agree")
    verts = v.vertices
    root = Word.identity(x.rank)
    if root not in verts:
        return False
    if left_forest_component(x, verts) != verts:
        return False
    if right_forest_component(y, verts) != verts:
        return False
    return fold(x.rank, [w for w in verts if not w.is_identity()]).is_rose


@dataclass(frozen=True)
class GerstenGraph:
    """The two edge families over a vertex set, with valence bookkeeping."""

    left: Automorphism
    right: Automorphism
    vertices: VertexSet
    x_edges: FrozenSet[Tuple[int, Word]]
    y_edges: FrozenSet[Tuple[Word, int]]

    @property
    def rank(self) -> int:
        return self.left.rank

    def x_head(self, edge: Tuple[int, Word]) -> Word:
        return left_step(self.left, edge[0], edge[1])

    def y_head(self, edge: Tuple[Word, int]) -> Word:
        return right_step(self.right, edge[0], edge[1])

    def x_tails(self, c: int) -> FrozenSet[Word]:
        """Vertices whose left c-step stays in the set."""
        return frozenset(
            v
            for v in self.vertices.vertices
            if left_step(self.left, c, v) in self.vertices.vertices
        )

    def x_heads(self, c: int) -> FrozenSet[Word]:
        return frozenset(left_step(self.left, c, v) for v in self.x_tails(c))

    def y_tails(self, c: int) -> FrozenSet[Word]:
        """Vertices whose right c-step stays in the set."""
        return frozenset(
            v
            for v in self.vertices.vertices
            if right_step(self.right, v, c) in self.vertices.vertices
        )

    def y_heads(self, c: int) -> FrozenSet[Word]:
        return frozenset(right_step(self.right, v, c) for v in self.y_tails(c))

    @cached_property
    def _valences(self) -> Dict[Word, int]:
        counts = {v: 0 for v in self.vertices.vertices}
        for e in self.x_edges:
            counts[e[1]] += 1
            counts[self.x_head(e)] += 1
        for e in self.y_edges:
            counts[e[0]] += 1
            counts[self.y_head(e)] += 1
        return counts

    def valence(self, v: Word) -> int:
        return self._valences[v]

    def valence_ge3(self) -> FrozenSet[Word]:
        """Vertices of valence at least three, the base vertex excluded."""
        root = Word.identity(self.rank)
        return frozenset(
            v for v, k in self._valences.items() if k >= 3 and v != root
        )


def build_gersten_graph(
    x: Automorphism, y: Automorphism, v: VertexSet
) -> GerstenGraph:
    if x.rank != y.rank or v.rank != x.rank:
        raise RankMismatch("ranks of bases and vertex set must agree")
    verts = v.vertices
    y_edges = frozenset(
        (w, i) for w in verts for i in range(1, y.rank + 1) if right_step(y, w, i) in verts
    )
    return GerstenGraph(x, y, v, _left_edges(x, verts), y_edges)


def _left_edges(x: Automorphism, verts) -> FrozenSet[Tuple[int, Word]]:
    """Left edges (positive letter, tail) with both ends in the set."""
    return frozenset(
        (i, w) for w in verts for i in range(1, x.rank + 1) if left_step(x, i, w) in verts
    )


def to_dot(graph: GerstenGraph) -> str:
    """Deterministic DOT text; left edges labeled xN, right edges yN."""

    def name(w: Word) -> str:
        return w.to_text() or "1"

    lines = ["digraph gersten {", "  rankdir=LR;"]
    for w in graph.vertices:
        lines.append(f'  "{name(w)}";')
    for i, tail in sorted(graph.x_edges, key=lambda e: (e[0], e[1].sort_key())):
        head = graph.x_head((i, tail))
        lines.append(f'  "{name(tail)}" -> "{name(head)}" [label="x{i}"];')
    for tail, i in sorted(graph.y_edges, key=lambda e: (e[1], e[0].sort_key())):
        head = graph.y_head((tail, i))
        lines.append(f'  "{name(tail)}" -> "{name(head)}" [label="y{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    witness: VertexSet
    kappa: int
    explored: int


def _subtree_candidates(x: Automorphism, size: int, counter: dict, limit: int):
    """Connected left-tree vertex sets through the identity, each once.

    Depth-first skip enumeration: the list of available extensions is
    consumed left to right, and a chosen vertex's children (in letter
    order) are stacked in front of its unchosen siblings, so growth digs
    down a branch before widening.  The witness order of ``distance``
    is exactly this order.
    """
    root = Word.identity(x.rank)
    letters = _signed_letters(x.rank)

    def children(v: Word) -> List[Word]:
        u = x.apply_backward(v)
        block = -u.codes[0] if u.codes else 0
        return [left_step(x, c, v) for c in letters if c != block]

    def rec(chosen: List[Word], avail: List[Word]):
        if len(chosen) == size:
            counter["states"] += 1
            if counter["states"] > limit:
                raise LimitExceeded(
                    f"distance enumeration exceeded {limit} candidate sets",
                    states=counter["states"],
                    limit=limit,
                    phase="distance",
                )
            yield frozenset(chosen)
            return
        for i, v in enumerate(avail):
            yield from rec(chosen + [v], children(v) + avail[i + 1:])

    yield from rec([root], children(root))


def _fast_translator_check(
    x: Automorphism, y: Automorphism, verts: FrozenSet[Word]
) -> bool:
    # left-connectivity holds by construction of the candidates
    if right_forest_component(y, verts) != verts:
        return False
    return fold(x.rank, [w for w in verts if not w.is_identity()]).is_rose


def distance(
    x: Automorphism,
    y: Automorphism,
    max_size: Optional[int] = None,
    limits: SearchLimits = SearchLimits(),
) -> DistanceResult:
    """The distance between two bases, with a smallest witness.

    Searches translators by growing size.  If one exists with exactly
    rank+1 vertices, the distance is the fewest branch vertices over all
    translators of that size; otherwise it is the (larger) size defect
    of the smallest translator found.  The witness is the first optimal
    set in the fixed enumeration order.
    """
    if x.rank != y.rank:
        raise RankMismatch(f"ranks {x.rank} and {y.rank} differ")
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size}")
    rank = x.rank
    cap = max_size if max_size is not None else len(krstic_translator(x, y))
    counter = {"states": 0}
    for size in range(rank + 1, cap + 1):
        if size == rank + 1:
            best: Optional[int] = None
            witness = None
            for verts in _subtree_candidates(x, size, counter, limits.max_states):
                if not _fast_translator_check(x, y, verts):
                    continue
                g = build_gersten_graph(x, y, VertexSet(rank, verts))
                branch = len(g.valence_ge3())
                if best is None or branch < best:
                    best, witness = branch, verts
                    if best == 0:
                        break
            if best is not None:
                return DistanceResult(
                    best, VertexSet(rank, witness), rank, counter["states"]
                )
        else:
            for verts in _subtree_candidates(x, size, counter, limits.max_states):
                if _fast_translator_check(x, y, verts):
                    return DistanceResult(
                        size - 1, VertexSet(rank, verts), size - 1, counter["states"]
                    )
    raise LimitExceeded(
        f"no translator with at most {cap} vertices",
        states=counter["states"],
        limit=limits.max_states,
        phase="distance",
    )


# ---------------------------------------------------------------------------
# path representation


@dataclass(frozen=True, slots=True)
class DecoratedPath:
    """A closed edge path carrying both labels.

    Steps are ("x", letter, vertex): vertex -> X(letter).vertex, and
    ("y", vertex, letter): vertex -> vertex.Y(letter).  Straight paths
    are anchored at the identity; cyclic paths wrap around.
    """

    kind: str
    steps: Tuple[tuple, ...]

    def left_label_codes(self) -> Tuple[int, ...]:
        return tuple([s[1] for s in reversed(self.steps) if s[0] == "x"])

    def right_label_codes(self) -> Tuple[int, ...]:
        return tuple([s[2] for s in self.steps if s[0] == "y"])


@dataclass(slots=True)
class TraversalCounts:
    """Unoriented edge traversal counts, split left/right."""

    x_counts: Dict[Tuple[int, Word], int] = field(default_factory=dict)
    y_counts: Dict[Tuple[Word, int], int] = field(default_factory=dict)

    def x_marginal(self, letter: int) -> int:
        return sum(n for (i, _), n in self.x_counts.items() if i == letter)

    def y_marginal(self, letter: int) -> int:
        return sum(n for (_, i), n in self.y_counts.items() if i == letter)


@dataclass(frozen=True, slots=True)
class RepresentResult:
    paths: Tuple[DecoratedPath, ...]
    counts: TraversalCounts


class _PathEnv:
    """Loop-building context over one translator graph."""

    def __init__(self, graph: GerstenGraph):
        self.graph = graph
        self.x = graph.left
        self.y = graph.right
        self.rank = graph.rank
        # vertex -> the vertex set's own Word object; paths hold these, so a
        # result shares one object per vertex however often it is visited
        self.verts = {v: v for v in graph.vertices.vertices}
        root = self.verts[Word.identity(self.rank)]
        # parent steps of the right spanning tree (a tree has only one);
        # stepping through self.verts keeps the set's own Word objects
        parent = _walk(
            lambda u, c: self.verts.get(right_step(self.y, u, c)),
            self.rank, self.verts, root,
        )
        if parent.keys() != self.verts.keys():
            raise PreconditionViolated("right edges do not span the vertex set")
        self.parent = parent
        self.root = root

    def path_from_root(self, v: Word) -> List[tuple]:
        steps = []
        while v != self.root:
            u, c = self.parent[v]
            steps.append(("y", u, c))
            v = u
        steps.reverse()
        return steps

    def path_to_root(self, v: Word) -> List[tuple]:
        return _invert_steps(self.path_from_root(v), self)

    def basic_loop(self, c: int) -> List[tuple]:
        """Closed loop at the root whose only left letter is -c (c > 0)."""
        tails = self.graph.x_tails(c)
        if not tails:
            raise TheoremViolation(f"translator missing left edges for letter {c}")
        v = _shortlex_min(tails)
        head = self.verts[left_step(self.x, c, v)]
        return (
            self.path_from_root(head)
            + [("x", -c, head)]
            + self.path_to_root(v)
        )


def _invert_steps(steps: List[tuple], env: _PathEnv) -> List[tuple]:
    out = []
    for s in reversed(steps):
        if s[0] == "x":
            out.append(("x", -s[1], env.verts[left_step(env.x, s[1], s[2])]))
        else:
            out.append(("y", env.verts[right_step(env.y, s[1], s[2])], -s[2]))
    return out


def _steps_inverse_pair(a: tuple, b: tuple) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "x":
        return b[1] == -a[1]
    return b[2] == -a[2]


def _slide_left_run(env: _PathEnv, run: List[tuple], pair: tuple) -> List[tuple]:
    """Move a run of left steps across the right step pair opened by pair.

    The pair cancels, so the run lands right-translated by the inverse of
    its letter image; every moved step must stay inside the vertex set.
    """
    shift = env.y.letter_image(pair[2]).inverse()
    block = []
    for _, c, v in run:
        moved = multiply(v, shift)
        if moved not in env.verts or left_step(env.x, c, moved) not in env.verts:
            raise TheoremViolation("slid left block left the vertex set")
        block.append(("x", c, env.verts[moved]))
    return block


def _slide_right_run(env: _PathEnv, run: List[tuple], pair: tuple) -> List[tuple]:
    """Move a run of right steps across the left step pair opened by pair."""
    img = env.x.letter_image(-pair[1])
    block = []
    for _, v, c in run:
        moved = multiply(img, v)
        if moved not in env.verts or right_step(env.y, moved, c) not in env.verts:
            raise TheoremViolation("slid right block left the vertex set")
        block.append(("y", env.verts[moved], c))
    return block


def _reduce_straight(steps: List[tuple], env: _PathEnv) -> List[tuple]:
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(steps):
            if _steps_inverse_pair(steps[i], steps[i + 1]):
                del steps[i:i + 2]
                i = max(i - 1, 0)
                changed = True
            else:
                i += 1
        if changed:
            continue
        # a right letter pair canceling across a block of left steps:
        # drop both right steps and slide the block sideways
        for i in range(len(steps)):
            if steps[i][0] != "y":
                continue
            j = i + 1
            while j < len(steps) and steps[j][0] == "x":
                j += 1
            if j == i + 1 or j >= len(steps):
                continue
            if not _steps_inverse_pair(steps[i], steps[j]):
                continue
            steps[i:j + 1] = _slide_left_run(env, steps[i + 1:j], steps[i])
            changed = True
            break
    return steps


def _reduce_cyclic(steps: List[tuple], env: _PathEnv) -> List[tuple]:
    """Rotating variant: both labels end up cyclically reduced."""

    def find_pair(kind: str):
        # a kind-pair with only other-kind steps strictly between,
        # scanned cyclically
        m = len(steps)
        for i in range(m):
            if steps[i][0] != kind:
                continue
            j = (i + 1) % m
            gap = 0
            while steps[j][0] != kind and gap < m:
                j = (j + 1) % m
                gap += 1
            if j != i and _steps_inverse_pair(steps[i], steps[j]):
                return i, j
        return None

    changed = True
    while changed and steps:
        changed = False
        m = len(steps)
        # adjacent cancellations first, wrap included
        for i in range(m):
            j = (i + 1) % m
            if i != j and _steps_inverse_pair(steps[i], steps[j]):
                for k in sorted((i, j), reverse=True):
                    del steps[k]
                changed = True
                break
        if changed:
            continue
        # a left letter pair across a right run, then a right letter pair
        # across a left run: drop both pair steps and slide the run
        for kind, slide in (("x", _slide_right_run), ("y", _slide_left_run)):
            hit = find_pair(kind)
            if hit is not None:
                i, j = hit
                run = steps[i + 1:j] if i < j else steps[i + 1:] + steps[:j]
                rest = steps[j + 1:] + steps[:i] if i < j else steps[j + 1:i]
                steps[:] = slide(env, run, steps[i]) + rest
                changed = True
                break
    return steps


def _count_steps(paths: Iterable[DecoratedPath], env: _PathEnv) -> TraversalCounts:
    counts = TraversalCounts()
    for p in paths:
        for s in p.steps:
            if s[0] == "x":
                c, v = s[1], s[2]
                key = (c, v) if c > 0 else (-c, env.verts[left_step(env.x, c, v)])
                counts.x_counts[key] = counts.x_counts.get(key, 0) + 1
            else:
                v, c = s[1], s[2]
                key = (v, c) if c > 0 else (env.verts[right_step(env.y, v, c)], -c)
                counts.y_counts[key] = counts.y_counts.get(key, 0) + 1
    return counts


def represent(words: WordSet, graph: GerstenGraph) -> RepresentResult:
    """Thread each entry through the translator as a closed path.

    The left label of each path spells the entry's X-coordinates and the
    right label its inverse's Y-coordinates, both fully (or cyclically)
    reduced, so the traversal counts split the length reports of the
    tuple under both bases exactly.
    """
    if words.rank != graph.rank:
        raise RankMismatch(f"ranks {words.rank} and {graph.rank} differ")
    if not is_translator(graph.left, graph.right, graph.vertices):
        raise PreconditionViolated("represent needs a translator vertex set")
    env = _PathEnv(graph)
    loops = {}

    def q(t: int) -> List[tuple]:
        if t not in loops:
            if t < 0:
                loops[t] = env.basic_loop(-t)
            else:
                loops[t] = _invert_steps(env.basic_loop(t), env)
        return list(loops[t])

    paths = []
    for w in words:
        cyclic = isinstance(w, CyclicWord)
        rep = w.as_word() if cyclic else w
        u = env.x.apply_backward(rep)
        steps: List[tuple] = []
        for t in reversed(u.codes):
            steps.extend(q(t))
        if cyclic:
            steps = _reduce_cyclic(_reduce_straight(steps, env), env)
            paths.append(DecoratedPath("cyclic", tuple(steps)))
        else:
            steps = _reduce_straight(steps, env)
            paths.append(DecoratedPath("straight", tuple(steps)))
    return RepresentResult(tuple(paths), _count_steps(paths, env))
