"""Seeded workloads: instance generation, execution and answer extraction.

An instance is plain data (ranks, letter-code tuples), so the same seed
gives byte-identical instances and a fresh set of library objects can be
built for every timed pass.  Instances come in blocks of fixed
composition; block ``i`` depends only on (workload, seed, i), so a run
that completes more blocks sees the same first blocks.

Library calls go through module attributes (``search.orbit_equivalent``)
so that the traced run's rebinding sees them.
"""

from __future__ import annotations

import random
from functools import lru_cache

from whitehead import bases, cayley_gersten, lengthfn, peak_reduction, search
from whitehead.errors import LimitExceeded
from whitehead.words import CyclicWord, Word

import reference

# Peak pairs are binned by work size.  Pairs whose coordinate change
# (the second basis written in the first) has total length at most
# PEAK_SMALL_COORD need at most about 70 distance states and are taken
# unclassified; longer ones, up to PEAK_MAX_COORD, are classified by the
# explored count of a distance search capped at the largest bin, and
# pairs beyond it are left out.  So no timed call comes near PEAK_STATE_BUDGET, and the median
# falls inside a bin rather than between two.
PEAK_STATE_BUDGET = 20_000
PEAK_SMALL_COORD = 4
PEAK_MAX_COORD = 9
PEAK_SMALL_PER_BLOCK = 2
PEAK_BINS = ((1, 120, 5), (121, 600, 1))  # (min, max explored, per block)

# Translator pairs with more image letters than this are drawn again; the
# few rank-3 pairs above it take up to seconds each and would dominate a
# run's time.
TRANSLATOR_MAX_LETTERS = 60

# Negative orbit pairs: the first family's level set is the one walked.
# Each pair has equal minimal length and different exponent gcd.
ORBIT_NEGATIVES = {
    "r2": (2, "abAB", "aabb"),  # one-state component
    "r3_light": (3, "aaabbb", "aabbcc"),
    "r3_heavy": (3, "aabbcc", "aaabbb"),  # nine-state component
    "r4_even": (4, "abcdABCD", "aabbccdd"),  # four-state components, rank 4
    "r4_odd": (4, "abABcdCD", "aabbccdd"),
}

# The tail percentile is fixed per workload so that faster code, which
# completes more instances, is compared at the same percentile.  At the
# design size each leaves at least ten instances beyond it.
TAIL_PERCENTILE = {"orbit": 95, "peak": 95, "translator": 95}

# Blocks used by the traced run, which must process a fixed instance set.
TRACE_BLOCKS = {"orbit": 1, "peak": 8, "translator": 4}


# -- random data -------------------------------------------------------------
#
# Generation runs on plain tuples with the reference arithmetic.  An
# automorphism is a pair (forward images, backward images); the Whitehead
# transforms and the first-improvement descent follow the library's fixed
# order, so the bases match what the library's own descent returns.


@lru_cache(maxsize=None)
def _transforms(rank):
    return tuple(
        (tuple(w.codes for w in d.images()), tuple(w.codes for w in d.inverse().images()))
        for d in bases.enumerate_whitehead_transforms(rank)
    )


def _identity(rank):
    gens = tuple((i,) for i in range(1, rank + 1))
    return gens, gens


def _compose(s, t):
    """s after t."""
    return (
        tuple(reference.substitute(w, s[0]) for w in t[0]),
        tuple(reference.substitute(w, t[1]) for w in s[1]),
    )


def _random_automorphism(rank, depth, rng):
    aut = _identity(rank)
    transforms = _transforms(rank)
    for _ in range(depth):
        aut = _compose(aut, rng.choice(transforms))
    return aut


def _image(entries, images):
    """Each entry substituted through images; cyclic entries cyclically reduced."""
    out = []
    for cyclic, codes in entries:
        w = reference.substitute(codes, images)
        out.append((cyclic, reference.cyclic_reduce(w) if cyclic else w))
    return out


def _length(entries):
    return sum(len(codes) for _, codes in entries)


def _descend(entries, start):
    """First-improvement Whitehead descent of the tuple from a basis."""
    basis = start
    view = _image(entries, basis[1])
    total = _length(view)
    improved = True
    while improved:
        improved = False
        for t in _transforms(len(start[0])):
            cand = _image(view, t[1])
            if _length(cand) < total:
                view, total = cand, _length(cand)
                basis = _compose(basis, t)
                improved = True
                break
    return basis, total


def _permutation_equal(x, y):
    """Whether y's images are x's up to order and inversion."""
    found = set()
    for w in y[0]:
        for j, v in enumerate(x[0], start=1):
            if w == v or w == reference.inverse(v):
                found.add(j)
                break
        else:
            return False
    return len(found) == len(x[0])


def _reduced_codes(rank, length, rng):
    choices = [c for c in range(-rank, rank + 1) if c != 0]
    codes = []
    while len(codes) < length:
        c = rng.choice(choices)
        if not (codes and codes[-1] == -c):
            codes.append(c)
    return tuple(codes)


def _word_set(rank, rng, max_words, max_len):
    """Entries (cyclic, codes); cyclic entries keep their full length."""
    entries = []
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(1, max_len)
        if rng.random() < 0.5:
            entries.append((False, _reduced_codes(rank, length, rng)))
        else:
            while True:
                w = reference.cyclic_reduce(_reduced_codes(rank, length, rng))
                if len(w) == length or length < 2:
                    break
            entries.append((True, w))
    return entries


def _aut_data(aut):
    return ([list(w) for w in aut[0]], [list(w) for w in aut[1]])


def _entries_data(entries):
    return [[bool(c), list(codes)] for c, codes in entries]


def _block_rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


# -- generators ----------------------------------------------------------------


def orbit_block(seed, index):
    """Positive pairs s, phi(s) at ranks 2-3 and negative family images.

    Per block: 11 rank-2 and 48 rank-3 positives, four rank-2 negatives,
    ten light and four heavy rank-3 negatives, and one rank-4 negative
    whose family alternates between blocks.  As many instances are cheaper
    than the rank-3 positives as dearer, so the median falls at their
    median, where their times are densest; the 95th percentile falls among
    the heavy rank-3 negatives.  Both hold whatever the number of blocks.
    """
    rng = _block_rng("orbit", seed, index)
    out = []
    for rank, count in ((2, 11), (3, 48)):
        for _ in range(count):
            s = _word_set(rank, rng, 3, 6)
            phi = _random_automorphism(rank, rng.randint(0, 6), rng)
            out.append(_orbit_instance(f"r{rank}_positive", rank, s, _image(s, phi[0])))
    r4 = "r4_even" if index % 2 == 0 else "r4_odd"
    for name, count in (("r2", 4), ("r3_light", 10), ("r3_heavy", 4), (r4, 1)):
        rank, first, second = ORBIT_NEGATIVES[name]
        for _ in range(count):
            depth = 2 if rank == 4 else rng.randint(0, 4)
            pair = []
            for text in (first, second):
                aut = _random_automorphism(rank, depth, rng)
                pair.append(_image([(True, CyclicWord.parse(rank, text).codes)], aut[0]))
            out.append(_orbit_instance(name, rank, pair[0], pair[1]))
    return out


def _orbit_instance(kind, rank, s, t):
    return {
        "kind": kind,
        "rank": rank,
        "s": _entries_data(s),
        "t": _entries_data(t),
        "equivalent": kind.endswith("positive"),
    }


def peak_block(seed, index):
    """Rank-2 local-minimum pairs of equal length, not permutation-equal.

    Candidates come from the peak-reduction acceptance generator: a random
    tuple and two descents from random starts.  Bin 0 holds the small
    pairs, bins 1 and up the classified ones (see PEAK_BINS).
    """
    rng = _block_rng("peak", seed, index)
    want = [PEAK_SMALL_PER_BLOCK] + [n for _, _, n in PEAK_BINS]
    limits = search.SearchLimits(max_states=PEAK_BINS[-1][1])
    out = []
    while any(want):
        entries = _word_set(2, rng, 2, 8)
        x, hx = _descend(entries, _random_automorphism(2, rng.randint(0, 4), rng))
        y, hy = _descend(entries, _random_automorphism(2, rng.randint(0, 4), rng))
        if hx != hy or _permutation_equal(x, y):
            continue
        coord = sum(len(reference.substitute(w, x[1])) for w in y[0])
        if coord <= PEAK_SMALL_COORD:
            k = 0
        elif coord > PEAK_MAX_COORD or not any(want[1:]):
            continue
        else:
            try:
                explored = cayley_gersten.distance(
                    automorphism(2, x), automorphism(2, y), limits=limits
                ).explored
            except LimitExceeded:
                continue
            k = next(k for k, (lo, hi, _) in enumerate(PEAK_BINS, 1) if lo <= explored <= hi)
        if want[k]:
            want[k] -= 1
            out.append({
                "rank": 2,
                "words": _entries_data(entries),
                "x": _aut_data(x),
                "y": _aut_data(y),
                "coord": coord,
                "bin": k,
            })
    return out


def translator_block(seed, index):
    """One basis pair per (rank, depth of X, depth of Y) in {2,3} x 0..4 x 0..4.

    A pair is drawn again while the forward and backward images of X and Y
    together exceed TRANSLATOR_MAX_LETTERS letters, the input size that
    sets an instance's cost.
    """
    rng = _block_rng("translator", seed, index)
    out = []
    for rank in (2, 3):
        for dx in range(5):
            for dy in range(5):
                while True:
                    x = _random_automorphism(rank, dx, rng)
                    y = _random_automorphism(rank, dy, rng)
                    letters = sum(len(w) for aut in (x, y) for images in aut for w in images)
                    if letters <= TRANSLATOR_MAX_LETTERS:
                        break
                out.append({
                    "rank": rank,
                    "words": _entries_data(_word_set(rank, rng, 2, 8)),
                    "x": _aut_data(x),
                    "y": _aut_data(y),
                })
    return out


# -- materialization -------------------------------------------------------------


def _word_set_obj(rank, entries):
    return lengthfn.WordSet(
        rank, tuple((CyclicWord if c else Word)(rank, codes) for c, codes in entries)
    )


def automorphism(rank, data):
    fwd, bwd = data
    return bases.Automorphism(
        rank, tuple(Word(rank, c) for c in fwd), tuple(Word(rank, c) for c in bwd)
    )


def materialize(workload, inst):
    """Fresh library objects for one timed call; no caches carry over."""
    rank = inst["rank"]
    if workload == "orbit":
        return (_word_set_obj(rank, inst["s"]), _word_set_obj(rank, inst["t"]))
    if workload == "translator":
        images = [tuple(Word(rank, c) for c in inst[k][0]) for k in ("x", "y")]
        return (rank, *images, _word_set_obj(rank, inst["words"]))
    return (
        automorphism(rank, inst["x"]),
        automorphism(rank, inst["y"]),
        _word_set_obj(rank, inst["words"]),
    )


# -- timed calls -----------------------------------------------------------------


def run_orbit(args):
    return search.orbit_equivalent(*args)


def run_peak(args):
    """distance under the budget, then peak_reduce until Equal."""
    x, y, words = args
    limits = search.SearchLimits(max_states=PEAK_STATE_BUDGET)
    d0 = cayley_gersten.distance(x, y, limits=limits).distance
    cur, steps = y, []
    while len(steps) <= d0:
        res = peak_reduction.peak_reduce(x, cur, words, limits=limits)
        if isinstance(res, peak_reduction.Equal):
            return d0, steps, res
        steps.append(res)
        cur = res.y_prime
    return d0, steps, None


def run_translator(args):
    """Both bases from their images, as ``wh translator`` loads them, then
    the translator, its check, its graph and the tuple's paths."""
    rank, x_images, y_images, words = args
    x = bases.Automorphism.from_images(rank, x_images)
    y = bases.Automorphism.from_images(rank, y_images)
    v = cayley_gersten.krstic_translator(x, y)
    ok = cayley_gersten.is_translator(x, y, v)
    graph = cayley_gersten.build_gersten_graph(x, y, v)
    return ok, cayley_gersten.represent(words, graph)


# -- answers as plain data ---------------------------------------------------------


def orbit_answer(result):
    if result is None:
        return None
    aut = result.automorphism
    return {
        "forward": [w.codes for w in aut.forward],
        "backward": [w.codes for w in aut.backward],
    }


def peak_answer(result):
    d0, steps, equal = result
    return {
        "d0": d0,
        "steps": [
            {
                "forward": [w.codes for w in s.y_prime.forward],
                "backward": [w.codes for w in s.y_prime.backward],
            }
            for s in steps
        ],
        "equal": None if equal is None else list(equal.permutation.targets),
    }


def translator_answer(result):
    ok, rep = result
    return {
        "is_translator": ok,
        "paths": [(p.left_label_codes(), p.right_label_codes()) for p in rep.paths],
    }


def check_peak(inst, answer):
    """reference.check_peak, recomputing distances from the first basis."""
    rank = inst["rank"]
    x = automorphism(rank, inst["x"])
    limits = search.SearchLimits(max_states=PEAK_STATE_BUDGET)

    def distance_of(forward, backward):
        y = automorphism(rank, (forward, backward))
        return cayley_gersten.distance(x, y, limits=limits).distance

    return reference.check_peak(inst, answer, distance_of)


# name -> (block generator, timed call, answer as data, answer check)
WORKLOADS = {
    "orbit": (orbit_block, run_orbit, orbit_answer, reference.check_orbit),
    "peak": (peak_block, run_peak, peak_answer, check_peak),
    "translator": (translator_block, run_translator, translator_answer,
                   reference.check_translator),
}

# Per-rank caches each workload's calls use; built by setup.
SETUP_RANKS = {"orbit": (2, 3, 4), "peak": (2,), "translator": (2, 3)}


def setup(workload):
    """Build the per-rank caches the workload uses."""
    for rank in SETUP_RANKS[workload]:
        bases.transform_tables(rank)
        bases.relabel_tables(rank)
        search.transforms_by_images(rank)
