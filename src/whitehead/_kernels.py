"""Tuple kernels for word arithmetic.

Words are tuples of nonzero signed letter codes over a rank-n alphabet:
code +i is the i-th generator, -i its inverse (1 <= i <= n).  Every
comparison in this package uses the fixed letter order

    gen 1 < gen 2 < ... < gen n < inv 1 < inv 2 < ... < inv n

which is what ``key_codes`` materializes: key(c) = c-1 for positive c and
n-c-1 for negative c, so integer order on keys is the letter order.

Letter tables (substitution images, relabelings) are indexed by the slot
c+n of a signed code c in -n..n; slot n, code 0, is never read.  Every
kernel is plain interpreted Python; there is no compiled path.

Throughout the package, tuples are built from lists (``tuple([...])``),
not from generators: ``tuple(genexpr)`` allocates a guessed size and
resizes it, so CPython's per-size tuple free lists fill up with dead
tuples and a long run holds several megabytes it never uses.
"""

from __future__ import annotations

JIT_ENABLED = False


def free_reduce(w):
    """Freely reduce a code sequence with a stack pass."""
    out = []
    for c in w:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def cyclic_bounds(w):
    """Bounds (lo, hi) with w[lo:hi] cyclically reduced; w must be reduced."""
    lo = 0
    hi = len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return lo, hi


def key_codes(w, n):
    """Map signed codes to the 0..2n-1 letter-order keys."""
    return tuple([c - 1 if c > 0 else n - c - 1 for c in w])


def least_rotation(keys):
    """Start index of the lexicographically least rotation of a key sequence.

    Only rotations starting at the least key can win, so those are the
    only ones compared; ties resolve to the smallest index, which leaves
    the rotated content identical anyway.  Works on tuples and bytes.
    """
    m = len(keys)
    if m < 2:
        return 0
    lo = min(keys)
    dbl = keys + keys
    best = s = keys.index(lo)
    best_rot = dbl[s:s + m]
    for _ in range(keys.count(lo) - 1):
        s = keys.index(lo, s + 1)
        rot = dbl[s:s + m]
        if rot < best_rot:
            best, best_rot = s, rot
    return best


def build_subst_table(images):
    """Substitution table of generator images (image of generator i at i-1).

    Slot c+n holds the image of the signed code c; the slot for -i is the
    inverse of the image of i.
    """
    n = len(images)
    table = [()] * (2 * n + 1)
    for i, img in enumerate(images, start=1):
        table[n + i] = tuple(img)
        table[n - i] = tuple([-c for c in reversed(img)])
    return tuple(table)


def substitute(w, table):
    """Replace each letter by its table image and freely reduce.

    Images are reduced words, so cancellation only happens where an image
    meets the reduced prefix built so far.
    """
    n = len(table) // 2
    out = []
    for c in w:
        img = table[c + n]
        k = 0
        m = len(img)
        while k < m and out and out[-1] == -img[k]:
            out.pop()
            k += 1
        out.extend(img[k:] if k else img)
    return tuple(out)


def substitute_entries(entries, cyclic, table):
    """Each code tuple substituted through table; cyclic ones cyclically reduced."""
    out = []
    for w, cyc in zip(entries, cyclic):
        img = substitute(w, table)
        if cyc:
            lo, hi = cyclic_bounds(img)
            img = img[lo:hi]
        out.append(img)
    return tuple(out)


def whitehead_graph(entries, cyclic, n):
    """Edge weights and vertex degrees of a tuple's Whitehead graph.

    Vertices are the signed letters of rank n+1, at slot c+n+1 of a row
    of 2n+3 slots; code n+1 is a letter z that closes each straight
    entry w into the cyclic word w.z.  Each cyclically adjacent pair
    (x, y) of an entry adds one edge {x, y^-1}.  Returns (weights,
    degrees): weights[u * (2n+3) + v] counts the edges joining slots u
    and v, stored both ways round, and degrees[u] is slot u's degree.
    Entries must be reduced, cyclic ones cyclically reduced.
    """
    z = n + 1
    s = 2 * z + 1
    weights = [0] * (s * s)
    for w, cyc in zip(entries, cyclic):
        if not cyc:
            w = w + (z,)
        elif not w:
            continue
        p = w[-1] + z
        for c in w:
            q = z - c
            weights[p * s + q] += 1
            weights[q * s + p] += 1
            p = c + z
    return weights, [sum(weights[u:u + s]) for u in range(0, s * s, s)]


def relabel(w, table):
    """Apply a signed-letter relabeling table."""
    n = len(table) // 2
    return tuple([table[c + n] for c in w])


def canonical_tuple(entries, cyclic, n, with_labelings=False):
    """Lex-least relabeling of a tuple of code tuples; cyclic[k] marks
    entry k as cyclic (least rotation).

    Greedy, entry by entry: a letter met first takes the next free
    generator, signed to appear positive, since any other label puts a
    larger key there.  Only cyclic entries branch, over the start
    rotations with the least first key; a rotation stops once its keys
    pass the best, and every labeling that ties the best is kept.

    With with_labelings, returns (state, labelings): each labeling that
    reaches the state as a list whose slot c+n holds the letter key of
    code c's label, or -1 where c does not occur; the permutations
    reaching the state fill some labeling's unlabeled generators.
    """
    # a labeling: (letter key of each slot c+n's label, -1 if none; labels used)
    labelings = [([-1] * (2 * n + 1), 0)]
    least = []
    for w, cyc in zip(entries, cyclic):
        m = len(w)
        ww = w + w
        best = None
        found = {}
        for t, k in labelings:
            starts = (0,)
            if cyc and m > 1:
                firsts = [x if x >= 0 else k for x in [t[c + n] for c in w]]
                lo = min(firsts)
                starts = [s for s in range(m) if firsts[s] == lo]
            for s in starts:
                u, j = t, k
                out = []
                tied = best is not None
                for i, c in enumerate(ww[s:s + m]):
                    x = u[c + n]
                    if x < 0:
                        if u is t:
                            u = t[:]
                        u[c + n] = x = j
                        u[n - c] = n + j
                        j += 1
                    if tied and x != best[i]:
                        if x > best[i]:
                            break
                        tied = False
                    out.append(x)
                else:
                    if not tied:
                        best, found = out, {}
                    found.setdefault(tuple(u), (u, j))
        least.append(best)
        labelings = list(found.values())
    # decode[key] is the signed code of a letter key
    decode = [k + 1 if k < n else n - k - 1 for k in range(2 * n)]
    state = tuple([tuple([decode[x] for x in keys]) for keys in least])
    if with_labelings:
        return state, [t for t, _ in labelings]
    return state
