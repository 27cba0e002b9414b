"""One distance-reducing step between two minimal bases.

Take a word tuple R and two bases X and Y that are both local minima of
the tuple length, and a smallest translator V between them.  Either the
bases agree letterwise up to a signed permutation, or there is a single
Whitehead transform of Y that keeps the tuple length unchanged and moves
Y strictly closer to X.  This module constructs that transform.

The construction always runs through the same first-stage data: a
disconnecting edge of the left tree on V splits V into a near side
(holding the identity) and a far side, and the resulting indicator is
propagated through the right edges to a two-valued label on the signed
Y-letters.  The label singles out a multiplier letter, and conjugating
the remaining letters by it according to the label is the transform.
What differs is how the edge is found.  When the translator is as small
as it can possibly be, the branch vertices are the obstruction and the
edge comes out of a nonzero matching in the coordinate-change matrix
(``case1_step``).  When the translator is larger, some right letter has
two parallel edges, and weighing the frontier sets of traversal counts
around them locates an edge whose far side can be folded in, shrinking
the translator itself (``case2_step``).  ``peak_reduce`` dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .bases import (
    Automorphism,
    SignedPermutation,
    WhiteheadTransformDescriptor,
    compose,
    signed_permutation_match,
)
from .cayley_gersten import (
    GerstenGraph,
    TraversalCounts,
    VertexSet,
    _signed_letters,
    build_gersten_graph,
    distance,
    is_translator,
    left_forest_component,
    left_geodesic,
    left_step,
    represent,
    right_forest_component,
    right_step,
)
from .errors import (
    EdgeAbsent,
    NotLocalMinimum,
    PreconditionViolated,
    RankMismatch,
    TheoremViolation,
)
from .lengthfn import WordSet, is_local_minimum, length_report
from .search import SearchLimits
from .words import Word

# An edge of the left tree is (signed letter, tail vertex); its head is
# the letter image times the tail.
Edge = Tuple[int, Word]


@dataclass(frozen=True)
class Partition:
    """Split of a vertex set by removing one left edge.

    ``v0`` is the side holding the identity, ``v1`` the rest; ``chi`` is
    the indicator of ``v1``.
    """

    edge: Edge
    v0: FrozenSet[Word]
    v1: FrozenSet[Word]

    def chi(self, v: Word) -> int:
        if v in self.v1:
            return 1
        if v in self.v0:
            return 0
        raise ValueError(f"vertex {v.to_text() or '1'!r} outside the partitioned set")


def _edge_head(x: Automorphism, edge: Edge) -> Word:
    c, tail = edge
    return left_step(x, c, tail)


def partition_chi(x: Automorphism, v: VertexSet, edge: Edge) -> Partition:
    """Remove one left edge from the restriction to V and split V.

    The side of the identity becomes ``v0``.  When the left restriction
    is a tree the removed edge disconnects it, so the head of the edge
    lands in ``v1``.
    """
    if x.rank != v.rank:
        raise RankMismatch(f"ranks {x.rank} and {v.rank} differ")
    c, tail = edge
    head = _edge_head(x, edge)
    if tail not in v:
        raise EdgeAbsent(f"edge tail {tail.to_text() or '1'!r} not in the vertex set")
    if head not in v:
        raise EdgeAbsent(f"edge head {head.to_text() or '1'!r} not in the vertex set")
    blocked = frozenset((tail, head))
    root = Word.identity(x.rank)
    seen = {root}
    queue = [root]
    letters = _signed_letters(x.rank)
    while queue:
        u = queue.pop()
        for d in letters:
            w = left_step(x, d, u)
            if w in v and w not in seen and frozenset((u, w)) != blocked:
                seen.add(w)
                queue.append(w)
    v0 = frozenset(seen)
    return Partition(edge=(c, tail), v0=v0, v1=v.vertices - v0)


def chi_F(x: Automorphism, edge: Edge, w: Word) -> int:
    """Far-side indicator on the whole group.

    1 when the left geodesic from the identity to ``w`` traverses the
    edge, 0 otherwise.  On a translator containing both edge ends this
    agrees with ``Partition.chi``.
    """
    c, tail = edge
    head = _edge_head(x, edge)
    pair = frozenset((tail, head))
    path = left_geodesic(x, Word.identity(x.rank), w)
    return int(any(frozenset((p, q)) == pair for p, q in zip(path, path[1:])))


def _x_edge_count(counts: TraversalCounts, x: Automorphism, c: int, tail: Word) -> int:
    # unoriented count keys always sit on the positive-letter tail
    if c > 0:
        return counts.x_counts.get((c, tail), 0)
    return counts.x_counts.get((-c, left_step(x, c, tail)), 0)


def _y_edge_count(counts: TraversalCounts, y: Automorphism, tail: Word, c: int) -> int:
    if c > 0:
        return counts.y_counts.get((tail, c), 0)
    return counts.y_counts.get((right_step(y, tail, c), -c), 0)


@dataclass(frozen=True)
class Frontier:
    """Traversal-count weights around a disconnecting edge.

    ``west``/``east`` split the tails of the chosen right letter by the
    left edge, ``south``/``north`` split the tails of the chosen left
    letter by the right edge, and ``proper`` is the far-side part of the
    right-letter tails.  Each carries the sum of traversal counts of its
    outgoing edges of the chosen letter.
    """

    west: FrozenSet[Word]
    east: FrozenSet[Word]
    south: FrozenSet[Word]
    north: FrozenSet[Word]
    proper: FrozenSet[Word]
    h_west: int
    h_east: int
    h_south: int
    h_north: int
    h_proper: int


@dataclass(frozen=True, eq=False)
class CaseContext:
    """Shared working state for one reduction step.

    Built from a triple (v*, x*, y*): the left edge from v* labelled x*
    is the disconnecting edge, and y* is the right letter whose tail set
    the construction pivots on.  ``chi_hat`` extends the far-side
    indicator to signed Y-letters, and ``y_dag`` is the member of the
    y* pair whose tail set lies on the near side; it is the multiplier
    of the derived transform.
    """

    graph: GerstenGraph
    words: WordSet
    counts: TraversalCounts
    stage: str
    v_star: Word
    x_star: int
    y_star: int
    partition: Partition
    one_part: FrozenSet[int]
    two_part: FrozenSet[int]
    chi_hat: Dict[int, int]
    y_dag: int

    def chi(self, v: Word) -> int:
        return self.partition.chi(v)

    def frontier(self) -> Frontier:
        """Frontier sets around the disconnecting edge.

        Needs the full square at the edge: both edge ends must be tails
        of y*, and both y*-edge ends must be tails of x*.
        """
        g = self.graph
        x, y = g.left, g.right
        vs, xs, ys = self.v_star, self.x_star, self.y_star
        xv = left_step(x, xs, vs)
        vy = right_step(y, vs, ys)
        s_y = g.y_tails(ys)
        t_x = g.x_tails(xs)
        if not (vs in s_y and xv in s_y and vs in t_x and vy in t_x):
            raise PreconditionViolated("frontier needs the full edge square")
        west = _component_in(
            lambda u, d: left_step(x, d, u), s_y, vs, frozenset((vs, xv)), x.rank
        )
        east = s_y - west
        south = _component_in(
            lambda u, d: right_step(y, u, d), t_x, vs, frozenset((vs, vy)), y.rank
        )
        north = t_x - south
        if xv not in east or vy not in north:
            raise TheoremViolation("removed edge did not separate its frontier")
        proper = frozenset(u for u in s_y if self.chi(u) == self.chi_hat[ys])
        counts = self.counts
        h_west = sum(_y_edge_count(counts, y, u, ys) for u in west)
        h_east = sum(_y_edge_count(counts, y, u, ys) for u in east)
        h_south = sum(_x_edge_count(counts, x, xs, u) for u in south)
        h_north = sum(_x_edge_count(counts, x, xs, u) for u in north)
        h_proper = sum(_y_edge_count(counts, y, u, ys) for u in proper)
        if proper != west and proper != east:
            raise TheoremViolation("far-side tails are not a frontier component")
        if not (min(h_south, h_north) <= min(h_west, h_east) <= h_proper):
            raise TheoremViolation("frontier count bounds failed")
        return Frontier(west, east, south, north, proper,
                        h_west, h_east, h_south, h_north, h_proper)


def _component_in(step, vertices, root, blocked_pair, rank):
    seen = {root}
    queue = [root]
    letters = _signed_letters(rank)
    while queue:
        u = queue.pop()
        for d in letters:
            w = step(u, d)
            if w in vertices and w not in seen and frozenset((u, w)) != blocked_pair:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def _left_restriction_edges(x: Automorphism, vertices: FrozenSet[Word]):
    edges = set()
    for i in range(1, x.rank + 1):
        for u in vertices:
            if left_step(x, i, u) in vertices:
                edges.add((i, u))
    return edges


def build_case_context(
    x: Automorphism,
    y: Automorphism,
    words: WordSet,
    v: VertexSet,
    triple: Tuple[Word, int, int],
    stage: str = "first",
) -> CaseContext:
    """Assemble the shared step data for a triple (v*, x*, y*).

    Classifies every other signed Y-letter by how many sides its tail
    set meets: one side fixes the label outright, both sides defer to
    the far-side indicator of v* times the letter's inverse.  The y*
    slot is labelled opposite to its inverse, and the member of the y*
    pair labelled 0 becomes the multiplier.
    """
    v_star, x_star, y_star = triple
    graph = build_gersten_graph(x, y, v)
    if v_star not in v:
        raise PreconditionViolated("triple vertex outside the vertex set")
    part = partition_chi(x, v, (x_star, v_star))
    result = represent(words, graph)
    counts = result.counts
    report_x = length_report(words, x)
    report_y = length_report(words, y)
    for i in range(1, x.rank + 1):
        if counts.x_marginal(i) != report_x.per_letter[i - 1]:
            raise TheoremViolation(f"left traversal counts missed letter {i}")
        if counts.y_marginal(i) != report_y.per_letter[i - 1]:
            raise TheoremViolation(f"right traversal counts missed letter {i}")
    # Every signed letter's tail set must span a connected piece of the
    # left tree, and right translation must carry it onto the head set.
    for c in _signed_letters(y.rank):
        tails = graph.y_tails(c)
        if not tails:
            raise TheoremViolation(f"no right edges for letter {c}")
        anchor = next(iter(tails))
        if left_forest_component(x, tails, anchor) != tails:
            raise TheoremViolation(f"tail set of letter {c} is not left-connected")
        translated = {(i, right_step(y, u, c)) for i, u in
                      _left_restriction_edges(x, tails)}
        if translated != _left_restriction_edges(x, graph.y_heads(c)):
            raise TheoremViolation(f"tail and head trees of letter {c} disagree")
    chi_hat: Dict[int, int] = {}
    one_part: List[int] = []
    two_part: List[int] = []
    for c in _signed_letters(y.rank):
        if c == y_star:
            continue
        values = {part.chi(u) for u in graph.y_tails(c)}
        if len(values) == 1:
            one_part.append(c)
            chi_hat[c] = values.pop()
        else:
            two_part.append(c)
            chi_hat[c] = chi_F(x, part.edge, right_step(y, v_star, -c))
    chi_hat[y_star] = 1 - chi_hat[-y_star]
    y_dag = y_star if chi_hat[y_star] == 0 else -y_star
    return CaseContext(
        graph=graph,
        words=words,
        counts=counts,
        stage=stage,
        v_star=v_star,
        x_star=x_star,
        y_star=y_star,
        partition=part,
        one_part=frozenset(one_part),
        two_part=frozenset(two_part),
        chi_hat=chi_hat,
        y_dag=y_dag,
    )


def derive_transform(ctx: CaseContext, y: Automorphism) -> Tuple[int, Automorphism]:
    """The Whitehead transform of Y read off a step context.

    Each basis letter is conjugation-adjusted by the multiplier on the
    sides where its tail labels are 1; the multiplier pair itself stays
    put.  The per-letter tuple lengths of every non-multiplier letter
    are unchanged, and that is checked here; only the multiplier letter
    may move, and the case steps check that it does not either.
    """
    rank = y.rank
    y_dag = ctx.y_dag
    k = abs(y_dag)
    pairs = []
    for i in range(1, rank + 1):
        if i == k:
            pairs.append((False, False))
        else:
            pairs.append((bool(ctx.chi_hat[i]), bool(ctx.chi_hat[-i])))
    try:
        desc = WhiteheadTransformDescriptor(rank, y_dag, tuple(pairs))
    except ValueError as exc:
        raise TheoremViolation(f"step context yields no transform: {exc}") from exc
    y_prime = compose(y, desc.to_automorphism())
    before = length_report(ctx.words, y)
    after = length_report(ctx.words, y_prime)
    for i in range(1, rank + 1):
        if i != k and after.per_letter[i - 1] != before.per_letter[i - 1]:
            raise TheoremViolation(
                f"letter {i} changed its tuple length under the transform"
            )
    return y_dag, y_prime


def _int_det(matrix: List[List[int]]) -> int:
    # Bareiss elimination, exact over the integers
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _least_nonzero_matching(matrix: List[List[int]]) -> Dict[int, int]:
    """First matching, in ascending choice order, that avoids zeros."""
    rank = len(matrix)
    assign: Dict[int, int] = {}
    used = set()

    def rec(i: int) -> bool:
        if i == rank:
            return True
        for j in range(rank):
            if j not in used and matrix[i][j] != 0:
                used.add(j)
                assign[i] = j
                if rec(i + 1):
                    return True
                used.discard(j)
                del assign[i]
        return False

    if not rec(0):
        raise TheoremViolation("no nonzero matching in the coordinate matrix")
    return {i + 1: assign[i] + 1 for i in range(rank)}


@dataclass(frozen=True, slots=True)
class Equal:
    """The bases agree letterwise under this signed permutation."""

    permutation: SignedPermutation

    def to_json_dict(self) -> dict:
        return {"kind": "equal", "perm": self.permutation.to_json_dict()}


@dataclass(frozen=True, slots=True)
class Step:
    """A transform of the second basis that reduces the distance.

    ``y_dag`` is the multiplier letter in the second basis's own
    coordinates, ``y_prime`` the transformed basis, ``v_prime`` a
    translator between the first basis and ``y_prime`` that witnesses
    the drop, and ``case`` records which branch built it.
    """

    y_dag: int
    y_prime: Automorphism
    v_prime: VertexSet
    case: int

    def to_json_dict(self) -> dict:
        rank = self.y_prime.rank
        return {
            "kind": "step",
            "y_dag": Word(rank, (self.y_dag,)).to_text(),
            "Yprime": [w.to_text() for w in self.y_prime.forward],
            "Vprime": [w.to_text() for w in self.v_prime.sorted()],
            "case": self.case,
        }


ReductionResult = Union[Equal, Step]


def _check_step_preconditions(x, y, words, v):
    if x.rank != y.rank or x.rank != words.rank or x.rank != v.rank:
        raise RankMismatch("bases, words and vertex set must share a rank")
    if not is_local_minimum(words, x):
        raise NotLocalMinimum("first basis is not a local minimum")
    if not is_local_minimum(words, y):
        raise NotLocalMinimum("second basis is not a local minimum")
    if not is_translator(x, y, v):
        raise PreconditionViolated("vertex set is not a translator")


def _xi_image(y: Automorphism, part: Partition, y_dag: int, v: Word) -> Word:
    return right_step(y, v, -y_dag) if part.chi(v) else v


def case1_step(
    x: Automorphism, y: Automorphism, words: WordSet, v: VertexSet
) -> ReductionResult:
    """Reduction step from a translator of the least possible size.

    Every signed letter then has exactly one edge, so the branch-vertex
    count is what has to drop.  If no letter runs from the identity to a
    branch vertex the bases already agree up to signed permutation.
    Otherwise the least such letter is the multiplier, the matching
    through the coordinate-change matrix picks the disconnecting edge,
    and the far side is folded in while the subdivided edge head is kept
    to hold the size.
    """
    _check_step_preconditions(x, y, words, v)
    rank = x.rank
    if len(v) - 1 != rank:
        raise PreconditionViolated(
            f"need {rank + 1} vertices for the small-translator step, got {len(v)}"
        )
    graph = build_gersten_graph(x, y, v)
    iota_x: Dict[int, Word] = {}
    iota_y: Dict[int, Word] = {}
    for c in _signed_letters(rank):
        xt, yt = graph.x_tails(c), graph.y_tails(c)
        if len(xt) != 1 or len(yt) != 1:
            raise TheoremViolation(f"letter {c} has parallel edges at least size")
        (iota_x[c],), (iota_y[c],) = xt, yt
    one = Word.identity(rank)
    candidates = [
        c
        for c in _signed_letters(rank)
        if iota_y[c] == one and graph.valence(iota_y[-c]) >= 3
    ]
    if not candidates:
        perm = signed_permutation_match(x, y)
        if perm is None:
            raise TheoremViolation("letterwise equal bases failed to match")
        return Equal(perm)
    c_dag = candidates[0]
    y_star = abs(c_dag)
    matrix = [
        [
            sum(1 if d == i else -1 if d == -i else 0
                for d in x.apply_backward(y.letter_image(j)).codes)
            for j in range(1, rank + 1)
        ]
        for i in range(1, rank + 1)
    ]
    if abs(_int_det(matrix)) != 1:
        raise TheoremViolation("coordinate-change matrix is not unimodular")
    psi = _least_nonzero_matching(matrix)
    x_star = next(i for i, j in psi.items() if j == y_star)
    v_star = iota_x[x_star]
    ctx = build_case_context(x, y, words, v, (v_star, x_star, y_star), stage="case1")
    if ctx.y_dag != c_dag:
        raise TheoremViolation("multiplier from labels disagrees with valence choice")
    y_dag, y_prime = derive_transform(ctx, y)
    x_dag = x_star if ctx.chi(v_star) == 0 else -x_star
    tail_dag = iota_x[x_dag]
    head_dag = left_step(x, x_dag, tail_dag)
    if ctx.chi(tail_dag) != 0 or ctx.chi(head_dag) != 1:
        raise TheoremViolation("kept edge is not oriented across the cut")
    image = frozenset(_xi_image(y, ctx.partition, y_dag, u) for u in v)
    v_prime_set = image | {head_dag}
    if len(v_prime_set) != len(v):
        raise TheoremViolation("folded vertex set changed size")
    v_prime = VertexSet(rank, v_prime_set)
    _check_step_result(x, y, y_prime, words, v_prime)
    before = len(graph.valence_ge3())
    after = len(build_gersten_graph(x, y_prime, v_prime).valence_ge3())
    if after >= before:
        raise TheoremViolation(f"branch vertices went {before} -> {after}")
    return Step(y_dag=y_dag, y_prime=y_prime, v_prime=v_prime, case=1)


def case2_step(
    x: Automorphism, y: Automorphism, words: WordSet, v: VertexSet
) -> ReductionResult:
    """Reduction step from an oversized translator.

    Some right letter has at least two edges; any left edge among its
    tails names the left letter to work with.  Among that letter's
    tails, a right-valence-one vertex whose left edge carries at most
    half the letter's traversal weight becomes the edge tail, oriented
    so the identity side holds it.  Folding the far side along the
    multiplier then identifies the two ends of the heavy square, so the
    translator shrinks outright.
    """
    _check_step_preconditions(x, y, words, v)
    rank = x.rank
    if len(v) - 1 <= rank:
        raise PreconditionViolated(
            "small-translator instances take the branch-vertex step"
        )
    graph = build_gersten_graph(x, y, v)
    counts = represent(words, graph).counts
    y_wide = next(
        (c for c in _signed_letters(rank) if len(graph.y_tails(c)) >= 2), None
    )
    if y_wide is None:
        raise TheoremViolation("oversized translator with all-single right letters")
    tails = graph.y_tails(y_wide)
    in_edges = sorted(
        ((i, u) for i, u in _left_restriction_edges(x, tails)),
        key=lambda e: (e[0], e[1].sort_key()),
    )
    if not in_edges:
        raise TheoremViolation("parallel right edges span no left edge")
    x_star = in_edges[0][0]
    report_x = length_report(words, x)
    t_x = graph.x_tails(x_star)
    if right_forest_component(y, t_x, next(iter(t_x))) != t_x:
        raise TheoremViolation("left-letter tails are not right-connected")
    v_star: Optional[Word] = None
    for u in sorted(t_x, key=Word.sort_key):
        valence = sum(1 for d in _signed_letters(rank) if right_step(y, u, d) in t_x)
        if valence == 1 and 2 * _x_edge_count(counts, x, x_star, u) <= (
            report_x.per_letter[x_star - 1]
        ):
            v_star = u
            break
    if v_star is None:
        raise TheoremViolation("no light leaf among the left-letter tails")
    part = partition_chi(x, v, (x_star, v_star))
    if part.chi(v_star) == 1:
        v_star, x_star = left_step(x, x_star, v_star), -x_star
    neighbours = [
        d
        for d in _signed_letters(rank)
        if right_step(y, v_star, d) in graph.x_tails(x_star)
    ]
    if len(neighbours) != 1:
        raise TheoremViolation("edge tail is no longer a leaf after orienting")
    y_star = neighbours[0]
    ctx = build_case_context(x, y, words, v, (v_star, x_star, y_star), stage="case2")
    if ctx.two_part:
        raise TheoremViolation("leaf tail left a two-sided letter behind")
    if ctx.chi(v_star) != 0 or ctx.chi(left_step(x, x_star, v_star)) != 1:
        raise TheoremViolation("cut is not oriented away from the identity")
    ctx.frontier()
    y_dag, y_prime = derive_transform(ctx, y)
    v_y = right_step(y, v_star, y_star)
    if ctx.chi(v_y) == 1:
        if y_dag != y_star:
            raise TheoremViolation("multiplier must be the leaf letter itself")
        merged = (v_star, v_y)
    else:
        if y_dag != -y_star:
            raise TheoremViolation("multiplier must be the leaf letter's inverse")
        x_v = left_step(x, x_star, v_star)
        merged = (x_v, right_step(y, x_v, y_star))
    xi = {u: _xi_image(y, ctx.partition, y_dag, u) for u in v}
    if xi[merged[0]] != xi[merged[1]]:
        raise TheoremViolation("designated square ends did not merge")
    v_prime_set = frozenset(xi.values())
    if len(v_prime_set) >= len(v):
        raise TheoremViolation("folding did not shrink the translator")
    v_prime = VertexSet(rank, v_prime_set)
    _check_step_result(x, y, y_prime, words, v_prime)
    return Step(y_dag=y_dag, y_prime=y_prime, v_prime=v_prime, case=2)


def _check_step_result(x, y, y_prime, words, v_prime):
    if length_report(words, y_prime).total != length_report(words, y).total:
        raise TheoremViolation("tuple length moved under the step")
    if not is_translator(x, y_prime, v_prime):
        raise TheoremViolation("step produced a non-translator vertex set")


def peak_reduce(
    x: Automorphism,
    y: Automorphism,
    words: WordSet,
    *,
    limits: SearchLimits = SearchLimits(),
) -> ReductionResult:
    """One step toward identifying two minimal bases.

    Both bases must be local minima of the tuple length.  Returns Equal
    with the matching signed permutation when the bases agree
    letterwise; otherwise returns a Step whose basis is strictly closer
    to the first one, with the tuple length unchanged.  Iterating from
    any starting pair reaches Equal in at most the starting distance
    many steps.
    """
    if x.rank != y.rank or x.rank != words.rank:
        raise RankMismatch("bases and words must share a rank")
    if not is_local_minimum(words, x):
        raise NotLocalMinimum("first basis is not a local minimum")
    if not is_local_minimum(words, y):
        raise NotLocalMinimum("second basis is not a local minimum")
    perm = signed_permutation_match(x, y)
    if perm is not None:
        return Equal(perm)
    res = distance(x, y, limits=limits)
    if res.distance <= x.rank:
        return case1_step(x, y, words, res.witness)
    return case2_step(x, y, words, res.witness)
