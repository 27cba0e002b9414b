"""Bases of a free group and the maps between them.

An Automorphism stores forward and backward generator images as reduced
words over the reference basis; construction verifies the two directions
compose to the identity, so an Automorphism cannot exist in a broken
state.  Whitehead transforms are kept as small descriptors (multiplier
letter plus a left/right flag pair per generator) because the searches
need to enumerate, invert and serialize them cheaply; descriptors expand
to full automorphisms on demand.

Basis membership for arbitrary word tuples goes through Stallings
folding (``fold`` / ``is_basis``).  Inverting a tuple of images instead
runs greedy Whitehead descent down to single letters, which doubles as
the verification that the tuple was a basis at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from . import _kernels
from .errors import NotABasis, RankMismatch, TheoremViolation
from .words import AnyWord, CyclicWord, Letter, Word


def _signed_letters(rank: int):
    return list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))


@dataclass(frozen=True, slots=True)
class Automorphism:
    rank: int
    forward: Tuple[Word, ...]
    backward: Tuple[Word, ...]

    def __post_init__(self):
        n = self.rank
        if len(self.forward) != n or len(self.backward) != n:
            raise RankMismatch(
                f"expected {n} images, got {len(self.forward)}/{len(self.backward)}"
            )
        for w in self.forward + self.backward:
            if not isinstance(w, Word) or w.rank != n:
                raise RankMismatch("image words must be straight words of the same rank")
        fwd, bwd = self._forward_table(), self._backward_table()
        for i in range(n):
            there = _kernels.substitute(self.backward[i].codes, fwd)
            back = _kernels.substitute(self.forward[i].codes, bwd)
            if there != (i + 1,) or back != (i + 1,):
                raise NotABasis(f"images do not invert each other at generator {i + 1}")

    @classmethod
    def identity(cls, rank: int) -> "Automorphism":
        gens = tuple([Word(rank, (i,)) for i in range(1, rank + 1)])
        return cls(rank, gens, gens)

    @classmethod
    def from_images(cls, rank: int, images) -> "Automorphism":
        """Build from forward images alone; computes and verifies the inverse."""
        imgs = tuple(images)
        return cls(rank, imgs, invert_images(rank, imgs))

    # Substitution tables are built per call rather than cached on the
    # value, so the automorphisms a caller keeps (certificates, reduction
    # steps) hold their images and nothing else.
    def _forward_table(self) -> tuple:
        return _kernels.build_subst_table([w.codes for w in self.forward])

    def _backward_table(self) -> tuple:
        return _kernels.build_subst_table([w.codes for w in self.backward])

    def letter_image(self, code: int) -> Word:
        """Image of a signed letter code under the forward map."""
        w = self.forward[abs(code) - 1]
        return w if code > 0 else w.inverse()

    def apply(self, w: AnyWord) -> AnyWord:
        return _substituted(w, self._forward_table())

    def apply_backward(self, w: AnyWord) -> AnyWord:
        return _substituted(w, self._backward_table())

    def inverse(self) -> "Automorphism":
        return Automorphism(self.rank, self.backward, self.forward)

    def is_identity(self) -> bool:
        return all(w.codes == (i + 1,) for i, w in enumerate(self.forward))

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "images": [w.to_text() for w in self.forward]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Automorphism":
        rank = int(obj["rank"])
        images = tuple([Word.parse(rank, t) for t in obj["images"]])
        return cls.from_images(rank, images)

    def __repr__(self):
        imgs = ",".join(w.to_text() or "1" for w in self.forward)
        return f"Automorphism({self.rank}, [{imgs}])"


def _substituted(w: AnyWord, table) -> AnyWord:
    codes = _kernels.substitute(w.codes, table)
    if isinstance(w, CyclicWord):
        return CyclicWord._from_reduced(w.rank, codes)
    return Word._wrap(w.rank, codes)


def compose(s: Automorphism, t: Automorphism) -> Automorphism:
    """s after t: compose(s, t)(w) = s(t(w))."""
    if s.rank != t.rank:
        raise RankMismatch(f"cannot compose ranks {s.rank} and {t.rank}")
    s_fwd, t_bwd = s._forward_table(), t._backward_table()
    fwd = tuple([_substituted(w, s_fwd) for w in t.forward])
    bwd = tuple([_substituted(w, t_bwd) for w in s.backward])
    return Automorphism(s.rank, fwd, bwd)


def invert_aut(s: Automorphism) -> Automorphism:
    return s.inverse()


@dataclass(frozen=True, slots=True)
class WhiteheadTransformDescriptor:
    """A Whitehead transform of the second kind.

    The multiplier m is a signed letter code; generator i with flag pair
    (left, right) maps to m^left * x_i * m^-right.  The multiplier's own
    generator is fixed, so its pair must stay (False, False).  The inverse
    transform keeps the flags and inverts the multiplier.
    """

    rank: int
    multiplier: int
    pairs: Tuple[Tuple[bool, bool], ...]

    def __post_init__(self):
        n = self.rank
        m = self.multiplier
        if m == 0 or abs(m) > n:
            raise ValueError(f"multiplier {m} outside rank {n}")
        if len(self.pairs) != n:
            raise ValueError("need one flag pair per generator")
        if self.pairs[abs(m) - 1] != (False, False):
            raise ValueError("multiplier generator must carry no flags")
        if not any(l or r for l, r in self.pairs):
            raise ValueError("descriptor must move at least one generator")

    def images(self) -> Tuple[Word, ...]:
        n, m = self.rank, self.multiplier
        out = []
        for i in range(1, n + 1):
            left, right = self.pairs[i - 1]
            codes = ([m] if left else []) + [i] + ([-m] if right else [])
            out.append(Word(n, codes))
        return tuple(out)

    def inverse(self) -> "WhiteheadTransformDescriptor":
        return WhiteheadTransformDescriptor(self.rank, -self.multiplier, self.pairs)

    def to_automorphism(self) -> Automorphism:
        fwd = self.images()
        bwd = self.inverse().images()
        return Automorphism(self.rank, fwd, bwd)

    def to_json_dict(self) -> dict:
        return {
            "multiplier": Word(self.rank, (self.multiplier,)).to_text(),
            "pairs": [[int(l), int(r)] for l, r in self.pairs],
        }

    @classmethod
    def from_json_dict(cls, rank: int, obj: dict) -> "WhiteheadTransformDescriptor":
        mword = Word.parse(rank, obj["multiplier"])
        if len(mword) != 1:
            raise ValueError(f"multiplier must be a single letter, got {obj['multiplier']!r}")
        pairs = tuple([(bool(l), bool(r)) for l, r in obj["pairs"]])
        return cls(rank, mword.codes[0], pairs)

    def __repr__(self):
        m = Word(self.rank, (self.multiplier,)).to_text()
        moved = []
        for i, (l, r) in enumerate(self.pairs):
            if l or r:
                img = self.images()[i].to_text()
                moved.append(f"{Word(self.rank, (i + 1,)).to_text()}->{img}")
        return f"Transform({m}; {', '.join(moved)})"


def transform_to_automorphism(desc: WhiteheadTransformDescriptor) -> Automorphism:
    return desc.to_automorphism()


_PAIR_OPTIONS = ((False, False), (False, True), (True, False), (True, True))


@lru_cache(maxsize=None)
def enumerate_whitehead_transforms(rank: int) -> Tuple[WhiteheadTransformDescriptor, ...]:
    """All non-identity Whitehead transforms in the fixed order.

    Multipliers run through the letter order; for each, the flag pairs of
    the remaining generators (in index order) run lexicographically with
    the all-fixed assignment skipped.  Rank 1 has no transforms.  The
    order is part of the package contract: first-improvement descent and
    certificate serialization depend on it.
    """
    return tuple([tt.descriptor for tt in transform_tables(rank)])


class _TransformTables:
    """One transform's substitution tables and Whitehead-graph cuts.

    For the transform x -> m^l x m^-r, fwd_cut holds the flat indices,
    into ``_kernels.whitehead_graph`` weights, of the vertex pairs that
    cross A = {m^-1} + {x : r} + {x^-1 : l}; inv_cut holds those of its
    inverse, whose A has m in place of m^-1; vertex is m's slot.  A
    cut's weight less the degree at vertex is the change in total
    length (see ``lengthfn``).
    """

    __slots__ = ("descriptor", "fwd", "inv", "fwd_cut", "inv_cut", "vertex")

    def __init__(self, desc, fwd, inv, fwd_cut, inv_cut, vertex):
        self.descriptor = desc
        self.fwd = fwd
        self.inv = inv
        self.fwd_cut = fwd_cut
        self.inv_cut = inv_cut
        self.vertex = vertex


@lru_cache(maxsize=None)
def transform_tables(rank: int) -> Tuple[_TransformTables, ...]:
    """The transforms' records in enumeration order, built in one pass.

    Each transform is checked to be an automorphism by substituting its
    forward and inverse images through each other.
    """
    if rank < 2:
        return ()
    z = rank + 1
    letters = [c for c in range(-z, z + 1) if c]
    # tables draw on a few letter images, and an inverse table or cut is
    # another transform's forward one; build and keep one of each
    images, tables, cuts = {}, {}, {}

    def table(key):
        t = tables.get(key)
        if t is None:
            t = tables[key] = tuple([
                images.setdefault(img, img) for img in _kernels.build_subst_table(key)
            ])
        return t

    def cut(inside):
        key = frozenset(inside)
        c = cuts.get(key)
        if c is None:
            c = cuts[key] = tuple([(u + z) * (2 * z + 1) + v + z
                                   for u in inside for v in letters if v not in inside])
        return c

    out = []
    seen = set()
    for m in _signed_letters(rank):
        others = [i for i in range(1, rank + 1) if i != abs(m)]
        for combo in itertools.product(_PAIR_OPTIONS, repeat=len(others)):
            if not any(l or r for l, r in combo):
                continue
            pairs = [(False, False)] * rank
            for i, pair in zip(others, combo):
                pairs[i - 1] = pair
            fwd_images, inv_images, flags = [], [], set()
            for i, (l, r) in enumerate(pairs, start=1):
                fwd_images.append(((m,) if l else ()) + (i,) + ((-m,) if r else ()))
                inv_images.append(((-m,) if l else ()) + (i,) + ((m,) if r else ()))
                if r:
                    flags.add(i)
                if l:
                    flags.add(-i)
            desc = WhiteheadTransformDescriptor(rank, m, tuple(pairs))
            key = tuple(fwd_images)
            if key in seen:
                raise TheoremViolation("duplicate transform images in enumeration")
            seen.add(key)
            fwd, inv = table(key), table(tuple(inv_images))
            for i in range(1, rank + 1):
                if (_kernels.substitute(inv[rank + i], fwd) != (i,)
                        or _kernels.substitute(fwd[rank + i], inv) != (i,)):
                    raise TheoremViolation(f"enumerated transform is not an automorphism: {desc!r}")
            out.append(_TransformTables(
                desc, fwd, inv, cut(flags | {-m}), cut(flags | {m}), m + z,
            ))
    return tuple(out)


def transform_deltas(entries, cyclic, rank: int, backward: bool = False):
    """Lazily yield (record, length change) for each transform in order.

    The change is that of the tuple under the transform, or under its
    inverse when backward, read off the tuple's Whitehead graph, which is
    built once; entries must be reduced, the cyclic ones cyclically.
    """
    weights, degrees = _kernels.whitehead_graph(entries, cyclic, rank)
    get = weights.__getitem__
    for tt in transform_tables(rank):
        yield tt, sum(map(get, tt.inv_cut if backward else tt.fwd_cut)) - degrees[tt.vertex]


def first_shrinking(entries, cyclic, rank: int, backward: bool = False):
    """The first transform (its inverse when backward) that strictly
    shrinks the tuple, as (record, length change), or None."""
    for tt, delta in transform_deltas(entries, cyclic, rank, backward):
        if delta < 0:
            return tt, delta
    return None


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """A letter permutation: generator i maps to the signed code targets[i-1]."""

    rank: int
    targets: Tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        if len(self.targets) != n:
            raise RankMismatch(f"expected {n} targets")
        if sorted(abs(c) for c in self.targets) != list(range(1, n + 1)) or 0 in self.targets:
            raise ValueError(f"targets {self.targets} are not a signed permutation")

    @classmethod
    def identity(cls, rank: int) -> "SignedPermutation":
        return cls(rank, tuple(range(1, rank + 1)))

    def is_identity(self) -> bool:
        return self.targets == tuple(range(1, self.rank + 1))

    def table(self) -> Tuple[int, ...]:
        """Relabel table over slots c+rank, kernel-ready."""
        n = self.rank
        t = [0] * (2 * n + 1)
        for i in range(1, n + 1):
            t[i + n] = self.targets[i - 1]
            t[-i + n] = -self.targets[i - 1]
        return tuple(t)

    def apply_code(self, code: int) -> int:
        tgt = self.targets[abs(code) - 1]
        return tgt if code > 0 else -tgt

    def apply(self, w: AnyWord) -> AnyWord:
        if w.rank != self.rank:
            raise RankMismatch(f"cannot relabel rank {w.rank} by rank {self.rank}")
        codes = _kernels.relabel(w.codes, self.table())
        if isinstance(w, CyclicWord):
            return CyclicWord._from_reduced(w.rank, codes)
        return Word._wrap(w.rank, codes)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other."""
        return SignedPermutation(
            self.rank, tuple([self.apply_code(c) for c in other.targets])
        )

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.rank
        for i, c in enumerate(self.targets, start=1):
            inv[abs(c) - 1] = i if c > 0 else -i
        return SignedPermutation(self.rank, tuple(inv))

    def to_automorphism(self) -> Automorphism:
        n = self.rank
        fwd = tuple([Word(n, (c,)) for c in self.targets])
        bwd = tuple([Word(n, (c,)) for c in self.inverse().targets])
        return Automorphism(n, fwd, bwd)

    def to_json_dict(self) -> dict:
        return {"targets": [Word(self.rank, (c,)).to_text() for c in self.targets]}

    @classmethod
    def from_json_dict(cls, rank: int, obj: dict) -> "SignedPermutation":
        targets = []
        for t in obj["targets"]:
            w = Word.parse(rank, t)
            if len(w) != 1:
                raise ValueError(f"permutation target must be a single letter: {t!r}")
            targets.append(w.codes[0])
        return cls(rank, tuple(targets))


def enumerate_signed_permutations(rank: int) -> Tuple[SignedPermutation, ...]:
    """All 2^n n! letter permutations, identity first."""
    out = []
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            out.append(SignedPermutation(rank, tuple([p * s for p, s in zip(perm, signs)])))
    return tuple(out)


@lru_cache(maxsize=None)
def shared_permutation(targets: Tuple[int, ...]) -> SignedPermutation:
    """One shared SignedPermutation per targets tuple, for values kept long."""
    return SignedPermutation(len(targets), targets)


def relabel_tables(rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Relabel tables of every signed permutation, in enumeration order."""
    return tuple([p.table() for p in enumerate_signed_permutations(rank)])


@dataclass(frozen=True)
class CoreGraph:
    """A folded labeled graph; vertex 0 is the base."""

    rank: int
    n_vertices: int
    edges: frozenset

    @property
    def is_rose(self) -> bool:
        """One vertex whose loops use every generator exactly once."""
        if self.n_vertices != 1 or len(self.edges) != self.rank:
            return False
        return {i for _, i, _ in self.edges} == set(range(1, self.rank + 1))


def fold(rank: int, generators) -> CoreGraph:
    """Stallings folding of the wedge of loops spelling the generators."""
    edges = []
    nv = 1
    for w in generators:
        codes = w.codes
        if not codes:
            continue
        prev = 0
        for t, c in enumerate(codes):
            nxt = 0 if t == len(codes) - 1 else nv
            if t != len(codes) - 1:
                nv += 1
            if c > 0:
                edges.append((prev, c, nxt))
            else:
                edges.append((nxt, -c, prev))
            prev = nxt

    parent = list(range(nv))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merged = True
    while merged:
        merged = False
        outmap, inmap = {}, {}
        for u, i, v in edges:
            u, v = find(u), find(v)
            for dmap, key, end in ((outmap, (u, i), v), (inmap, (v, i), u)):
                seen = dmap.get(key)
                if seen is None:
                    dmap[key] = end
                elif seen != end:
                    a, b = find(seen), find(end)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
                        merged = True
            if merged:
                break

    final = {(find(u), i, find(v)) for u, i, v in edges}
    verts = sorted({v for e in final for v in (e[0], e[2])} | {find(0)})
    base = find(0)
    order = [base] + [v for v in verts if v != base]
    renum = {v: k for k, v in enumerate(order)}
    return CoreGraph(
        rank, len(order), frozenset((renum[u], i, renum[v]) for u, i, v in final)
    )


def is_basis(rank: int, images) -> bool:
    """Whether a word tuple is a free basis, by folding to the rose."""
    imgs = tuple(images)
    if len(imgs) != rank:
        return False
    if any(not isinstance(w, Word) or w.rank != rank or w.is_identity() for w in imgs):
        return False
    return fold(rank, imgs).is_rose


def signed_permutation_match(x: Automorphism, y: Automorphism) -> Optional[SignedPermutation]:
    """The letter permutation p with y = x . p, if the image sets agree
    up to order and inversion; None otherwise."""
    if x.rank != y.rank:
        raise RankMismatch(f"ranks {x.rank} and {y.rank} differ")
    lookup = {}
    for j, w in enumerate(x.forward, start=1):
        lookup[w.codes] = j
        lookup[w.inverse().codes] = -j
    targets = []
    for w in y.forward:
        c = lookup.get(w.codes)
        if c is None:
            return None
        targets.append(c)
    if sorted(abs(c) for c in targets) != list(range(1, x.rank + 1)):
        return None
    return SignedPermutation(x.rank, tuple(targets))


def invert_images(rank: int, images) -> Tuple[Word, ...]:
    """Backward images of a basis tuple, by Whitehead descent to letters.

    Greedy first-improvement descent shrinks the tuple's total length;
    a basis bottoms out at single letters, anything else stalls higher
    and raises NotABasis.
    """
    imgs = tuple(images)
    if len(imgs) != rank:
        raise NotABasis(f"need {rank} images, got {len(imgs)}")
    for w in imgs:
        if not isinstance(w, Word) or w.rank != rank:
            raise RankMismatch("images must be straight words of the matching rank")
        if w.is_identity():
            raise NotABasis("an image is the identity")

    tuples = tuple([w.codes for w in imgs])
    straight = (False,) * rank
    # u_fwd: forward images of the descent map U with U(images) = current tuple
    u_fwd = [(i,) for i in range(1, rank + 1)]
    total = sum(map(len, tuples))
    while total > rank:
        step = first_shrinking(tuples, straight, rank)
        if step is None:
            raise NotABasis(f"tuple stalls at total length {total} > rank {rank}")
        tt, delta = step
        tuples = tuple([_kernels.substitute(t, tt.fwd) for t in tuples])
        total += delta
        if sum(map(len, tuples)) != total:
            raise TheoremViolation(f"Whitehead graph mis-scored {tt.descriptor!r}")
        u_fwd = [_kernels.substitute(w, tt.fwd) for w in u_fwd]

    codes = [t[0] for t in tuples]
    if sorted(abs(c) for c in codes) != list(range(1, rank + 1)):
        raise NotABasis(f"tuple descends to letters {codes}, not a signed basis")
    # U(images) = p as a letter permutation, so images^-1 = p^-1 . U
    perm_inv = SignedPermutation(rank, tuple(codes)).inverse()
    table = perm_inv.table()
    return tuple([Word._wrap(rank, _kernels.relabel(w, table)) for w in u_fwd])
