"""Letters, straight words and cyclic words of a free group.

A word of rank n is a freely reduced sequence of signed letters; a cyclic
word is additionally cyclically reduced and stored at its least rotation
under the fixed letter order (generators first, then inverses, both by
index), so equal conjugacy classes compare equal.  Straight and cyclic
words never compare equal to each other.

All three value types are immutable; every operation returns new objects.
Text form uses a..z for generators and A..Z for inverses, which caps
parsing and formatting (not in-memory ranks) at 26 generators.  The
identity parses from "" or "1" and formats as "".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from . import _kernels
from .errors import InvalidLetter, RankMismatch

TEXT_RANK_LIMIT = 26

_LOWER = "abcdefghijklmnopqrstuvwxyz"


class Letter(NamedTuple):
    index: int
    sign: int

    @property
    def code(self) -> int:
        return self.index * self.sign

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)

    @classmethod
    def from_code(cls, code: int) -> "Letter":
        return cls(abs(code), 1 if code > 0 else -1)


def _coerce_codes(rank: int, letters) -> tuple:
    codes = []
    for item in letters:
        c = item.code if isinstance(item, Letter) else int(item)
        if c == 0 or abs(c) > rank:
            raise InvalidLetter(f"letter code {c} outside rank {rank}")
        codes.append(c)
    return tuple(codes)


def _check_rank(rank: int) -> int:
    rank = int(rank)
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    return rank


def _parse_codes(rank: int, text: str) -> list:
    if text == "" or text == "1":
        return []
    codes = []
    for pos, ch in enumerate(text):
        if "a" <= ch <= "z":
            c = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            c = -(ord(ch) - ord("A") + 1)
        else:
            raise InvalidLetter(f"character {ch!r} at position {pos} is not a letter")
        if abs(c) > rank:
            raise InvalidLetter(f"letter {ch!r} at position {pos} exceeds rank {rank}")
        codes.append(c)
    return codes


def _format_codes(codes) -> str:
    out = []
    for c in codes:
        i = abs(c)
        if i > TEXT_RANK_LIMIT:
            raise InvalidLetter(f"letter index {i} has no single-character form")
        ch = _LOWER[i - 1]
        out.append(ch if c > 0 else ch.upper())
    return "".join(out)


@dataclass(frozen=True)
class Alphabet:
    """The signed alphabet of a rank; mostly a parsing/formatting helper."""

    rank: int

    def __post_init__(self):
        _check_rank(self.rank)

    def letters(self):
        """All signed letters in the fixed order."""
        for i in range(1, self.rank + 1):
            yield Letter(i, 1)
        for i in range(1, self.rank + 1):
            yield Letter(i, -1)

    def parse(self, text: str) -> "Word":
        return Word(self.rank, _parse_codes(self.rank, text))

    def format(self, word: Union["Word", "CyclicWord"]) -> str:
        return _format_codes(word.codes)


def _least_cyclic(codes: tuple, rank: int) -> tuple:
    """Cyclic reduction of a reduced code tuple, at its least rotation."""
    lo, hi = _kernels.cyclic_bounds(codes)
    codes = codes[lo:hi]
    s = _kernels.least_rotation(_kernels.key_codes(codes, rank))
    return codes[s:] + codes[:s]


class Word:
    """A freely reduced straight word; construction reduces its input."""

    __slots__ = ("rank", "codes")

    def __init__(self, rank: int, letters: Iterable = ()):
        rank = _check_rank(rank)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "codes", _kernels.free_reduce(_coerce_codes(rank, letters)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _wrap(cls, rank: int, codes: tuple) -> "Word":
        # trusted constructor: codes already reduced and validated
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "codes", codes)
        return w

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls._wrap(_check_rank(rank), ())

    @classmethod
    def parse(cls, rank: int, text: str) -> "Word":
        return cls(rank, _parse_codes(_check_rank(rank), text))

    def letters(self):
        return tuple([Letter.from_code(c) for c in self.codes])

    def inverse(self) -> "Word":
        return Word._wrap(self.rank, tuple([-c for c in reversed(self.codes)]))

    def is_identity(self) -> bool:
        return not self.codes

    def to_text(self) -> str:
        return _format_codes(self.codes)

    def sort_key(self):
        """Shortlex key under the fixed letter order."""
        return (len(self.codes), _kernels.key_codes(self.codes, self.rank))

    def __len__(self):
        return len(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return self.inverse()

    def __eq__(self, other):
        if type(other) is not Word:
            return NotImplemented
        return self.rank == other.rank and self.codes == other.codes

    def __hash__(self):
        return hash((Word, self.rank, self.codes))

    def __lt__(self, other):
        if type(other) is not Word or other.rank != self.rank:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Word({self.rank}, {self.to_text()!r})"


class CyclicWord:
    """A conjugacy class: cyclically reduced, stored at its least rotation."""

    __slots__ = ("rank", "codes")

    def __init__(self, rank: int, letters: Iterable = ()):
        rank = _check_rank(rank)
        reduced = _kernels.free_reduce(_coerce_codes(rank, letters))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "codes", _least_cyclic(reduced, rank))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    @classmethod
    def _wrap(cls, rank: int, codes: tuple) -> "CyclicWord":
        # trusted constructor: codes already cyclically reduced at least rotation
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "codes", codes)
        return w

    @classmethod
    def _from_reduced(cls, rank: int, codes: tuple) -> "CyclicWord":
        # trusted constructor: codes already freely reduced and validated
        return cls._wrap(rank, _least_cyclic(codes, rank))

    @classmethod
    def identity(cls, rank: int) -> "CyclicWord":
        return cls._wrap(_check_rank(rank), ())

    @classmethod
    def parse(cls, rank: int, text: str) -> "CyclicWord":
        return cls(rank, _parse_codes(_check_rank(rank), text))

    def inverse(self) -> "CyclicWord":
        return CyclicWord._from_reduced(self.rank, tuple([-c for c in reversed(self.codes)]))

    def is_identity(self) -> bool:
        return not self.codes

    def to_text(self) -> str:
        return _format_codes(self.codes)

    def as_word(self) -> Word:
        """The canonical-rotation representative as a straight word."""
        return Word._wrap(self.rank, self.codes)

    def sort_key(self):
        return (len(self.codes), _kernels.key_codes(self.codes, self.rank))

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        if type(other) is not CyclicWord:
            return NotImplemented
        return self.rank == other.rank and self.codes == other.codes

    def __hash__(self):
        return hash((CyclicWord, self.rank, self.codes))

    def __lt__(self, other):
        if type(other) is not CyclicWord or other.rank != self.rank:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"CyclicWord({self.rank}, {self.to_text()!r})"


AnyWord = Union[Word, CyclicWord]


def reduce(rank: int, letters: Iterable) -> Word:
    """Freely reduce a letter sequence into a Word."""
    return Word(rank, letters)


def multiply(u: Word, v: Word) -> Word:
    if u.rank != v.rank:
        raise RankMismatch(f"cannot multiply rank {u.rank} by rank {v.rank}")
    a, b = u.codes, v.codes
    # both factors are reduced, so letters cancel only across the junction
    k = 0
    m = min(len(a), len(b))
    while k < m and a[-1 - k] == -b[k]:
        k += 1
    return Word._wrap(u.rank, a[:len(a) - k] + b[k:])


def invert(w: AnyWord) -> AnyWord:
    return w.inverse()


def cyclic_canonical(w: Word) -> CyclicWord:
    """The conjugacy class of a straight word."""
    return CyclicWord(w.rank, w.codes)


def letter_count(w: AnyWord, index: int = None):
    """Occurrences of each generator, counting both signs.

    With an index, the count for that generator alone; otherwise a tuple
    indexed by generator - 1.
    """
    counts = [0] * w.rank
    for c in w.codes:
        counts[abs(c) - 1] += 1
    if index is None:
        return tuple(counts)
    if not 1 <= index <= w.rank:
        raise InvalidLetter(f"generator index {index} outside rank {w.rank}")
    return counts[index - 1]


def parse_word(rank: int, text: str) -> AnyWord:
    """Parse CLI text: a leading "~" marks a cyclic word."""
    if text.startswith("~"):
        return CyclicWord.parse(rank, text[1:])
    return Word.parse(rank, text)


def format_word(w: AnyWord) -> str:
    """Inverse of parse_word: cyclic words get the "~" prefix."""
    if isinstance(w, CyclicWord):
        return "~" + w.to_text()
    return w.to_text()
