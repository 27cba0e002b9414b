"""Regenerate the golden corpus of ``wh --json`` outputs.

    PYTHONPATH=src python tests/golden/make_corpus.py > tests/golden/corpus.json

Inputs are drawn from fixed seeds at ranks 2 and 3, plus rank-4 ``minimize``
and ``equiv`` cases that pin the descent order over 504 transforms.  Each
case records the input files, the argument vector (file arguments by
name), the exit code and the exact stdout bytes of ``whitehead.cli.main``.  ``test_golden.py``
replays every case and compares byte for byte, so the corpus pins the
outputs together with the enumeration and witness orders behind them.
A case whose output changes on purpose needs a regenerated corpus and a
note in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from whitehead.bases import Automorphism, compose, signed_permutation_match  # noqa: E402
from whitehead.cayley_gersten import distance  # noqa: E402
from whitehead.cli import main  # noqa: E402
from whitehead.errors import LimitExceeded  # noqa: E402
from whitehead.lengthfn import WordSet, descend, total_length  # noqa: E402
from whitehead.search import SearchLimits  # noqa: E402
from whitehead.words import CyclicWord, Word, format_word  # noqa: E402

from helpers import random_automorphism, random_cyclic_word, random_word  # noqa: E402


def _word_set(rank, rng, max_words, max_len):
    out = []
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(1, max_len)
        if rng.random() < 0.5:
            out.append(random_word(rank, length, rng))
        else:
            out.append(random_cyclic_word(rank, length, rng))
    return out


def _words_file(rank, words):
    return {"rank": rank, "words": [format_word(w) for w in words]}


def _basis_file(aut):
    return {"rank": aut.rank, "images": [w.to_text() for w in aut.forward]}


def run_case(files, argv):
    """Exit code and stdout of one CLI run on the given input files."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        real = [paths.get(a, a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(real)
    return code, out.getvalue()


def _equiv_case(rank, rng, unrelated):
    """Files and argv of one `equiv` case: the second tuple is an
    automorphic image of the first, or an unrelated tuple of the same kinds."""
    words = _word_set(rank, rng, 2, 5)
    if unrelated:
        other = _word_set(rank, rng, len(words), 5)
        other = (other + words)[: len(words)]
        # keep the kinds per position so the pair is comparable
        other = [
            (CyclicWord(rank, o.codes) if isinstance(w, CyclicWord) else Word(rank, o.codes))
            for o, w in zip(other, words)
        ]
    else:
        aut = random_automorphism(rank, rng.randint(1, 3), rng)
        other = [aut.apply(w) for w in words]
    return ({"s": _words_file(rank, words), "t": _words_file(rank, other)},
            ["equiv", "-r", str(rank), "s", "t", "--json"])


def _minimal_pairs(rng, wanted):
    """Test-05 style: two distinct local minima of one rank-2 tuple at equal
    length, as many per distance as wanted[d] (distance searches of at most
    2000 sets only, so the corpus replays quickly)."""
    out = []
    while any(wanted.values()):
        words = _word_set(2, rng, 2, 8)
        ws = WordSet(2, tuple(words))
        x = descend(ws, start=random_automorphism(2, rng.randint(0, 4), rng)).basis
        y = descend(ws, start=random_automorphism(2, rng.randint(0, 4), rng)).basis
        if total_length(ws, x) != total_length(ws, y):
            continue
        if signed_permutation_match(x, y) is not None:
            continue
        try:
            d = distance(x, y, limits=SearchLimits(max_states=2000)).distance
        except LimitExceeded:
            continue
        if wanted.get(d, 0) > 0:
            wanted[d] -= 1
            out.append((words, x, y))
    return out


def cases():
    rng = random.Random(20261020)
    out = []

    def add(name, files, argv):
        out.append({"name": name, "files": files, "argv": argv})

    for k in range(14):
        rank = 2 if k < 8 else 3
        words = _word_set(rank, rng, 3, 7)
        add(f"minimize-{k}", {"w": _words_file(rank, words)},
            ["minimize", "-r", str(rank), "w", "--json"])

    for k in range(12):
        rank = 2 if k < 7 else 3
        add(f"equiv-{k}", *_equiv_case(rank, rng, k % 3 == 2))

    for k in range(8):
        rank = 2 if k < 5 else 3
        x = random_automorphism(rank, rng.randint(0, 2), rng)
        y = random_automorphism(rank, rng.randint(1, 3), rng)
        add(f"translator-{k}", {"x": _basis_file(x), "y": _basis_file(y)},
            ["translator", "-r", str(rank), "-x", "x", "-y", "y", "--json"])

    for k in range(6):
        rank = 2 if k < 4 else 3
        x = random_automorphism(rank, rng.randint(0, 1), rng)
        y = compose(x, random_automorphism(rank, rng.randint(1, 2), rng))
        add(f"distance-{k}", {"x": _basis_file(x), "y": _basis_file(y)},
            ["distance", "-r", str(rank), "-x", "x", "-y", "y", "--json"])

    for k, (words, x, y) in enumerate(_minimal_pairs(rng, {1: 2, 2: 2, 3: 2, 4: 1})):
        files = {"x": _basis_file(x), "y": _basis_file(y), "w": _words_file(2, words)}
        add(f"distance-minimal-{k}", files,
            ["distance", "-r", "2", "-x", "x", "-y", "y", "--max-states", "20000", "--json"])
        add(f"peak-reduce-{k}", files,
            ["peak-reduce", "-r", "2", "-x", "x", "-y", "y", "w", "--max-states", "20000",
             "--json"])

    for k in range(4):
        rank = 2 if k < 3 else 3
        x = random_automorphism(rank, rng.randint(0, 1), rng)
        y = random_automorphism(rank, rng.randint(1, 2), rng)
        add(f"gersten-dot-{k}", {"x": _basis_file(x), "y": _basis_file(y)},
            ["gersten-dot", "-r", str(rank), "-x", "x", "-y", "y", "--json"])

    # rank 4, from a stream of their own so the cases above keep their inputs
    rng4 = random.Random(20261022)
    for k in range(6):
        words = _word_set(4, rng4, 3, 8)
        add(f"minimize-r4-{k}", {"w": _words_file(4, words)},
            ["minimize", "-r", "4", "w", "--json"])
    for k in range(6):
        add(f"equiv-r4-{k}", *_equiv_case(4, rng4, k % 3 == 2))

    # documented failure exits: nothing on stdout
    ident = _basis_file(Automorphism.identity(2))
    shear = {"rank": 2, "images": ["ab", "b"]}
    add("exit-budget", {"x": ident, "y": shear},
        ["distance", "-r", "2", "-x", "x", "-y", "y", "--max-states", "2", "--json"])
    add("exit-precondition", {"x": ident, "y": shear, "w": {"rank": 2, "words": ["aa"]}},
        ["peak-reduce", "-r", "2", "-x", "x", "-y", "y", "w", "--json"])
    add("exit-not-a-basis", {"x": {"rank": 2, "images": ["aa", "b"]}, "y": shear},
        ["distance", "-r", "2", "-x", "x", "-y", "y", "--json"])
    return out


def main_():
    corpus = []
    for case in cases():
        code, stdout = run_case(case["files"], case["argv"])
        corpus.append(dict(case, exit=code, stdout=stdout))
    json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main_()
