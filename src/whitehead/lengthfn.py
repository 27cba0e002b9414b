"""The length functional on word tuples and greedy descent.

A WordSet is an ordered tuple of straight and cyclic words over one
rank.  Its length at a basis is the total letter count of the tuple
rewritten in that basis's coordinates, with cyclic entries measured
after cyclic reduction.  The per-letter report splits the same count by
generator of the measuring basis.

``descend`` walks the basis through Whitehead transforms by strict
first improvement in the fixed enumeration order, so its step sequence
is reproducible; the result records the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from . import _kernels
from .bases import (
    Automorphism,
    WhiteheadTransformDescriptor,
    compose,
    transform_tables,
)
from .errors import KindMismatch, RankMismatch
from .words import AnyWord, CyclicWord, Word, parse_word, format_word


@dataclass(frozen=True)
class WordSet:
    """An ordered tuple of words; position and kind both matter."""

    rank: int
    words: Tuple[AnyWord, ...]

    def __post_init__(self):
        for w in self.words:
            if not isinstance(w, (Word, CyclicWord)):
                raise TypeError(f"not a word: {w!r}")
            if w.rank != self.rank:
                raise RankMismatch(f"word {w!r} has rank {w.rank}, set has {self.rank}")

    def kinds(self) -> Tuple[str, ...]:
        return tuple([
            "cyclic" if isinstance(w, CyclicWord) else "straight" for w in self.words
        ])

    def shape(self) -> Tuple[str, ...]:
        return self.kinds()

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "words": [
                {"kind": k, "w": w.to_text()} for k, w in zip(self.kinds(), self.words)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WordSet":
        rank = int(obj["rank"])
        out = []
        for entry in obj["words"]:
            kind = entry["kind"]
            if kind == "straight":
                out.append(Word.parse(rank, entry["w"]))
            elif kind == "cyclic":
                out.append(CyclicWord.parse(rank, entry["w"]))
            else:
                raise ValueError(f"unknown word kind {kind!r}")
        return cls(rank, tuple(out))

    @classmethod
    def parse(cls, rank: int, texts) -> "WordSet":
        """Parse CLI text entries; "~" marks cyclic words."""
        return cls(rank, tuple([parse_word(rank, t) for t in texts]))

    def to_texts(self) -> Tuple[str, ...]:
        return tuple([format_word(w) for w in self.words])

    def __repr__(self):
        return f"WordSet({self.rank}, [{', '.join(self.to_texts())}])"


def check_same_shape(a: WordSet, b: WordSet) -> None:
    """Positional comparison is only defined on equal shapes."""
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if len(a) != len(b):
        raise KindMismatch(f"tuple sizes differ: {len(a)} vs {len(b)}")
    if a.kinds() != b.kinds():
        raise KindMismatch(f"kinds differ per position: {a.kinds()} vs {b.kinds()}")


@dataclass(frozen=True)
class LengthReport:
    """Total length and its split by measuring-basis generator."""

    total: int
    per_letter: Tuple[int, ...]


def _measure(words: WordSet, basis: Automorphism) -> Tuple[AnyWord, ...]:
    if words.rank != basis.rank:
        raise RankMismatch(f"ranks differ: {words.rank} vs {basis.rank}")
    return tuple([basis.apply_backward(w) for w in words])


def length_report(words: WordSet, basis: Automorphism) -> LengthReport:
    """Lengths of the tuple in the coordinates of the given basis."""
    per = [0] * words.rank
    for w in _measure(words, basis):
        for c in w.codes:
            per[abs(c) - 1] += 1
    return LengthReport(sum(per), tuple(per))


def total_length(words: WordSet, basis: Automorphism) -> int:
    return length_report(words, basis).total


def in_coordinates(words: WordSet, basis: Automorphism) -> WordSet:
    """The tuple rewritten in the basis's coordinates."""
    return WordSet(words.rank, _measure(words, basis))


def _coordinates(words: WordSet, basis: Automorphism):
    """Code tuples of the tuple in the basis's coordinates, and which are cyclic."""
    coords = _measure(words, basis)
    return (
        tuple([w.codes for w in coords]),
        tuple([isinstance(w, CyclicWord) for w in coords]),
    )


@dataclass(frozen=True)
class DescentResult:
    basis: Automorphism
    path: Tuple[WhiteheadTransformDescriptor, ...]
    initial: LengthReport
    final: LengthReport


def descend(words: WordSet, start: Optional[Automorphism] = None) -> DescentResult:
    """Greedy first-improvement descent of the length functional.

    From the starting basis (identity by default), repeatedly applies
    the first transform in enumeration order that strictly shrinks the
    tuple, until none does.  The final basis is a local minimum.
    """
    basis = Automorphism.identity(words.rank) if start is None else start
    initial = length_report(words, basis)
    entries, cyclic = _coordinates(words, basis)
    total = sum(map(len, entries))
    path = []
    tables = transform_tables(words.rank)
    improved = True
    while improved:
        improved = False
        for tt in tables:
            cand = _kernels.substitute_entries(entries, cyclic, tt.inv)
            cand_total = sum(map(len, cand))
            if cand_total < total:
                entries, total = cand, cand_total
                path.append(tt.descriptor)
                basis = compose(basis, tt.descriptor.to_automorphism())
                improved = True
                break
    return DescentResult(basis, tuple(path), initial, length_report(words, basis))


def is_local_minimum(words: WordSet, basis: Automorphism) -> bool:
    """No Whitehead transform strictly shrinks the tuple at this basis."""
    entries, cyclic = _coordinates(words, basis)
    total = sum(map(len, entries))
    for tt in transform_tables(words.rank):
        if sum(map(len, _kernels.substitute_entries(entries, cyclic, tt.inv))) < total:
            return False
    return True
