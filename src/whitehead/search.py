"""Orbit search: minimization, level-set exploration, certificates.

Two word tuples lie in one automorphism orbit exactly when greedy
descent takes them to the same minimal total length and their minimal
forms are joined by length-preserving Whitehead transforms.  The search
works on canonical forms: each tuple is relabeled by the lex-least
signed letter permutation (cyclic entries re-rotated), which shrinks
the level set by a factor of up to 2^n n! without losing completeness,
since letter permutations are themselves automorphisms.  The lex-least
relabeling is found greedily, entry by entry, without trying the 2^n n!
permutations (``_kernels.canonical_tuple``).

Every positive answer is returned as a certificate built from the
descent paths, the breadth-first chain and the relabelings: Whitehead
transforms in application order plus one final letter permutation.
Certificates are verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from . import _kernels
from .bases import (
    Automorphism,
    SignedPermutation,
    WhiteheadTransformDescriptor,
    compose,
    shared_permutation,
    transform_tables,
)
from .errors import LimitExceeded, TheoremViolation
from .lengthfn import (
    DescentResult,
    LengthReport,
    WordSet,
    check_same_shape,
    descend,
    in_coordinates,
    length_report,
)
from .words import CyclicWord, Word


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the breadth-first searches."""

    max_states: int = 1_000_000

    def __post_init__(self):
        if self.max_states < 0:
            raise ValueError(f"max_states must be nonnegative, got {self.max_states}")


@lru_cache(maxsize=None)
def transforms_by_images(rank: int) -> Dict[tuple, WhiteheadTransformDescriptor]:
    # a table's slots rank+1.. hold the generator images as code tuples
    return {tt.fwd[rank + 1:]: tt.descriptor for tt in transform_tables(rank)}


def _conjugate_descriptor(
    perm: SignedPermutation, desc: WhiteheadTransformDescriptor
) -> WhiteheadTransformDescriptor:
    """The descriptor of perm^-1 . t . perm, always again a transform."""
    rank = desc.rank
    aut = compose(
        perm.inverse().to_automorphism(),
        compose(desc.to_automorphism(), perm.to_automorphism()),
    )
    key = tuple([w.codes for w in aut.forward])
    found = transforms_by_images(rank).get(key)
    if found is None:
        raise TheoremViolation(
            f"conjugate of {desc!r} by {perm.targets} is not a Whitehead transform"
        )
    return found


def _canonicalize(entries, cyclic, rank, with_labelings=False):
    """Canonical state of a tuple of code tuples: its lex-least relabeling
    (and the labelings reaching it; see ``_kernels.canonical_tuple``)."""
    return _kernels.canonical_tuple(entries, cyclic, rank, with_labelings)


def _matching_permutation(entries, cyclic, rank):
    """Canonical state of a tuple of code tuples, and the first permutation
    in enumeration order (absolute targets, then signs, + first) reaching
    it: a labeling's free generators take the unused targets ascending."""
    state, labelings = _canonicalize(entries, cyclic, rank, True)
    # generator i's target is the signed code of the letter key in slot rank+i
    decode = [k + 1 if k < rank else rank - k - 1 for k in range(2 * rank)] + [0]
    fills = []
    for t in labelings:
        targets = [decode[x] for x in t[rank + 1:]]
        free = iter(sorted(set(range(1, rank + 1)) - {abs(c) for c in targets}))
        fills.append(tuple([c or next(free) for c in targets]))
    first = min(fills, key=lambda p: ([abs(c) for c in p], [c < 0 for c in p]))
    return state, shared_permutation(first)


def _entries(words: WordSet) -> tuple:
    return tuple([w.codes for w in words])


def _cyclic_flags(words: WordSet) -> Tuple[bool, ...]:
    return tuple([k == "cyclic" for k in words.kinds()])


def _wrap_state(state, cyclic, rank) -> WordSet:
    return WordSet(rank, tuple([
        CyclicWord._wrap(rank, w) if cyc else Word._wrap(rank, w)
        for w, cyc in zip(state, cyclic)
    ]))


def canonical_form(words: WordSet) -> WordSet:
    """Lex-least letter relabeling, cyclic entries at least rotation."""
    cyclic = _cyclic_flags(words)
    state = _canonicalize(_entries(words), cyclic, words.rank)
    return _wrap_state(state, cyclic, words.rank)


def canonical_with_permutation(words: WordSet) -> Tuple[WordSet, SignedPermutation]:
    """Canonical form plus the first permutation that reaches it."""
    cyclic = _cyclic_flags(words)
    state, perm = _matching_permutation(_entries(words), cyclic, words.rank)
    return _wrap_state(state, cyclic, words.rank), perm


@dataclass(frozen=True)
class MinimizeResult:
    minimal: WordSet
    basis: Automorphism
    path: Tuple[WhiteheadTransformDescriptor, ...]
    report: LengthReport


def minimize_tuple(words: WordSet) -> MinimizeResult:
    """Descend to a local (hence global) minimum of the length functional."""
    res: DescentResult = descend(words)
    return MinimizeResult(
        in_coordinates(words, res.basis), res.basis, res.path, res.final
    )


def _bfs_level_set(start: WordSet, limits: SearchLimits, target=None):
    """Breadth-first walk of the level set from a canonical start state.

    States are tuples of code tuples.  Returns (visited, found): visited
    maps each state reached to (parent state, transform index), None for
    the start, so chains can be rebuilt; found is the target state once
    reached, else None.
    """
    rank = start.rank
    cyclic = _cyclic_flags(start)
    tables = transform_tables(rank)
    total = sum(len(w) for w in start)

    root = _entries(start)
    visited = {root: None}
    queue = [root]
    while queue:
        next_queue = []
        for state in queue:
            for t_idx, tt in enumerate(tables):
                cand = _kernels.substitute_entries(state, cyclic, tt.fwd)
                if sum(map(len, cand)) != total:
                    continue
                canon = _canonicalize(cand, cyclic, rank)
                if canon in visited:
                    continue
                if len(visited) >= limits.max_states:
                    raise LimitExceeded(
                        f"level-set search exceeded {limits.max_states} states",
                        states=len(visited),
                        limit=limits.max_states,
                    )
                visited[canon] = (state, t_idx)
                if canon == target:
                    return visited, canon
                next_queue.append(canon)
        queue = next_queue
    return visited, None


def level_set_component(words: WordSet, limits: SearchLimits = SearchLimits()):
    """All canonical tuples reachable by length-preserving transforms."""
    start = canonical_form(words)
    visited, _ = _bfs_level_set(start, limits)
    cyclic = _cyclic_flags(words)
    return frozenset(_wrap_state(s, cyclic, words.rank) for s in visited)


@dataclass(frozen=True, slots=True)
class OrbitCertificate:
    """A witness that one tuple maps onto another, kept as its factors.

    transforms apply first, in list order; the permutation applies last.
    automorphism composes them on each access.
    """

    transforms: Tuple[WhiteheadTransformDescriptor, ...]
    permutation: SignedPermutation

    @property
    def automorphism(self) -> Automorphism:
        aut = Automorphism.identity(self.permutation.rank)
        for d in self.transforms:
            aut = compose(d.to_automorphism(), aut)
        return compose(self.permutation.to_automorphism(), aut)

    def to_json_dict(self) -> dict:
        return {
            "transforms": [d.to_json_dict() for d in self.transforms],
            "permutation": self.permutation.to_json_dict(),
            "images": [w.to_text() for w in self.automorphism.forward],
        }

    @classmethod
    def from_json_dict(cls, rank: int, obj: dict) -> "OrbitCertificate":
        transforms = tuple(
            WhiteheadTransformDescriptor.from_json_dict(rank, d)
            for d in obj["transforms"]
        )
        cert = cls(transforms, SignedPermutation.from_json_dict(rank, obj["permutation"]))
        if [w.to_text() for w in cert.automorphism.forward] != list(obj["images"]):
            raise ValueError("certificate images do not match its factors")
        return cert


def verify_certificate(cert: OrbitCertificate, source: WordSet, image: WordSet) -> bool:
    """Whether the certificate's factors, composed, map source to image
    entrywise."""
    if cert.permutation.rank != source.rank:
        return False
    aut = cert.automorphism
    moved = tuple([aut.apply(w) for w in source])
    return moved == image.words


class _CertificateBuilder:
    """Accumulates factors in application order into (transforms, perm)."""

    def __init__(self, rank):
        self.transforms = []
        self.perm = SignedPermutation.identity(rank)

    def push_transform(self, desc: WhiteheadTransformDescriptor):
        self.transforms.append(_conjugate_descriptor(self.perm, desc))

    def push_permutation(self, perm: SignedPermutation):
        self.perm = perm.compose(self.perm)

    def build(self, source: WordSet, image: WordSet) -> OrbitCertificate:
        cert = OrbitCertificate(tuple(self.transforms), shared_permutation(self.perm.targets))
        if not verify_certificate(cert, source, image):
            raise TheoremViolation("assembled certificate failed verification")
        return cert


def orbit_equivalent(
    s1: WordSet, s2: WordSet, limits: SearchLimits = SearchLimits()
) -> Optional[OrbitCertificate]:
    """Decide whether some automorphism carries s1 to s2 position by
    position, returning a verified certificate when one exists.

    Raises KindMismatch for incomparable shapes and LimitExceeded when
    the level-set walk overruns its state budget.
    """
    check_same_shape(s1, s2)
    rank = s1.rank

    m1 = minimize_tuple(s1)
    m2 = minimize_tuple(s2)
    if m1.report.total != m2.report.total:
        return None

    c2, perm2 = canonical_with_permutation(m2.minimal)
    c1, perm1 = canonical_with_permutation(m1.minimal)

    root = _entries(c1)
    target = _entries(c2)

    chain = []
    if root != target:
        visited, found = _bfs_level_set(c1, limits, target=target)
        if found is None:
            return None
        cyclic = _cyclic_flags(s1)
        tables = transform_tables(rank)
        state = found
        while state != root:
            parent, t_idx = visited[state]
            tt = tables[t_idx]
            cand = _kernels.substitute_entries(parent, cyclic, tt.fwd)
            canon, perm = _matching_permutation(cand, cyclic, rank)
            if canon != state:
                raise TheoremViolation("level-set chain does not replay its canonical forms")
            chain.append((tt.descriptor, perm))
            state = parent
        chain.reverse()

    builder = _CertificateBuilder(rank)
    # descent of s1, inverted: the first descent step is undone first
    for desc in m1.path:
        builder.push_transform(desc.inverse())
    builder.push_permutation(perm1)
    for desc, perm in chain:
        builder.push_transform(desc)
        builder.push_permutation(perm)
    builder.push_permutation(perm2.inverse())
    # descent of s2, replayed forward: earliest step applied last
    for desc in reversed(m2.path):
        builder.push_transform(desc)
    return builder.build(s1, s2)
