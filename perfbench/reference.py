"""Reference arithmetic and answer checks that do not use the library.

Words here are tuples of nonzero signed letter codes (+i is generator i,
-i its inverse).  Every check takes plain data extracted from the
program's answer and returns a list of problems; an empty list means the
answer is correct.
"""

from __future__ import annotations

import math


def free_reduce(codes):
    """Stack free reduction."""
    out = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def cyclic_reduce(codes):
    w = free_reduce(codes)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def inverse(codes):
    return tuple(-c for c in reversed(codes))


def substitute(codes, images):
    """Image of a word under generator images (images[i-1] for generator i)."""
    out = []
    for c in codes:
        out.extend(images[c - 1] if c > 0 else inverse(images[-c - 1]))
    return free_reduce(out)


def same_cyclic(u, v):
    """Whether two words are conjugate, i.e. equal as cyclic words."""
    u, v = cyclic_reduce(u), cyclic_reduce(v)
    if len(u) != len(v):
        return False
    if not u:
        return True
    doubled = u + u
    return any(doubled[k:k + len(v)] == v for k in range(len(u)))


def same_word(u, v, cyclic):
    return same_cyclic(u, v) if cyclic else free_reduce(u) == free_reduce(v)


def exponent_gcd(entries, rank):
    """gcd of the abelianized exponent-sum vector of a tuple.

    An automorphism acts on the vector through GL(n, Z), which keeps the
    gcd, so tuples with different values lie in different orbits.
    """
    sums = [0] * rank
    for _cyclic, codes in entries:
        for c in codes:
            sums[abs(c) - 1] += 1 if c > 0 else -1
    g = 0
    for s in sums:
        g = math.gcd(g, s)
    return g


def inverse_pair_problems(rank, forward, backward):
    """Forward and backward images must undo each other on every generator."""
    out = []
    for i in range(1, rank + 1):
        if substitute(backward[i - 1], forward) != (i,):
            out.append(f"forward(backward(x{i})) != x{i}")
        if substitute(forward[i - 1], backward) != (i,):
            out.append(f"backward(forward(x{i})) != x{i}")
    return out


def tuple_length(entries, backward):
    """Total length of a tuple measured in the basis with these backward images."""
    total = 0
    for cyclic, codes in entries:
        img = substitute(codes, backward)
        total += len(cyclic_reduce(img) if cyclic else img)
    return total


def check_orbit(instance, answer):
    """orbit_equivalent: a certificate for positives, None for negatives.

    instance: {"rank", "s", "t", "equivalent"} with s/t lists of
    (cyclic, codes); answer: None or {"forward", "backward"} images.
    """
    rank, s, t = instance["rank"], instance["s"], instance["t"]
    if not instance["equivalent"]:
        problems = []
        if exponent_gcd(s, rank) == exponent_gcd(t, rank):
            problems.append("negative pair is not separated by the exponent gcd")
        if answer is not None:
            problems.append("certificate returned for an inequivalent pair")
        return problems
    if answer is None:
        return ["no certificate for an equivalent pair"]
    problems = inverse_pair_problems(rank, answer["forward"], answer["backward"])
    for k, ((cyclic, src), (_, dst)) in enumerate(zip(s, t)):
        if not same_word(substitute(src, answer["forward"]), dst, cyclic):
            problems.append(f"certificate does not carry entry {k} onto its image")
    return problems


def check_peak(instance, answer, distance_of):
    """The distance plus peak_reduce chain between two minimal bases.

    answer: {"d0", "steps": [{"forward", "backward"}], "equal": targets or
    None}.  distance_of(forward, backward) recomputes the distance from
    the first basis to a step's basis.
    """
    rank, words = instance["rank"], instance["words"]
    x_fwd, x_bwd = instance["x"]
    y_fwd, y_bwd = instance["y"]
    problems = []
    h0 = tuple_length(words, y_bwd)
    if tuple_length(words, x_bwd) != h0:
        problems.append("instance bases have different tuple lengths")
    if len(answer["steps"]) > answer["d0"]:
        problems.append(f"{len(answer['steps'])} steps exceed distance {answer['d0']}")
    d_prev = answer["d0"]
    cur = y_fwd
    for k, step in enumerate(answer["steps"]):
        bad = inverse_pair_problems(rank, step["forward"], step["backward"])
        if bad:
            problems.extend(f"step {k}: {p}" for p in bad)
            break
        if tuple_length(words, step["backward"]) != h0:
            problems.append(f"step {k}: tuple length moved")
        d = distance_of(step["forward"], step["backward"])
        if not d < d_prev:
            problems.append(f"step {k}: distance {d_prev} -> {d} did not drop")
        d_prev, cur = d, step["forward"]
    targets = answer["equal"]
    if targets is None:
        problems.append("chain did not end in Equal")
    else:
        for i, tgt in enumerate(targets):
            want = x_fwd[tgt - 1] if tgt > 0 else inverse(x_fwd[-tgt - 1])
            if free_reduce(cur[i]) != free_reduce(want):
                problems.append(f"Equal permutation does not map letter {i + 1}")
    return problems


def check_translator(instance, answer):
    """krstic_translator -> is_translator -> represent.

    The left label of each path, substituted through X, spells the entry;
    the right label, substituted through Y, spells the entry's inverse
    (cyclic entries up to rotation).
    """
    x_fwd, _ = instance["x"]
    y_fwd, _ = instance["y"]
    problems = []
    if answer["is_translator"] is not True:
        problems.append("krstic_translator result failed is_translator")
    if len(answer["paths"]) != len(instance["words"]):
        return problems + ["one path per entry expected"]
    for k, ((cyclic, codes), (left, right)) in enumerate(
        zip(instance["words"], answer["paths"])
    ):
        if not same_word(substitute(left, x_fwd), codes, cyclic):
            problems.append(f"entry {k}: left label does not spell the entry")
        if not same_word(substitute(right, y_fwd), inverse(codes), cyclic):
            problems.append(f"entry {k}: right label does not spell the inverse")
    return problems
