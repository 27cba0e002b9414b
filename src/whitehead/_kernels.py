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


def relabel(w, table):
    """Apply a signed-letter relabeling table."""
    n = len(table) // 2
    return tuple([table[c + n] for c in w])


def key_table(table):
    """The relabeling table as a ``bytes.translate`` table on letter keys."""
    n = len(table) // 2
    codes = [c for c in range(-n, n + 1) if c]
    out = bytearray(range(256))
    for k, img in zip(key_codes(codes, n), key_codes(relabel(codes, table), n)):
        out[k] = img
    return bytes(out)


def relabeled_keys(entries, cyclic, key_tables, n):
    """Yield the tuple's concatenated letter keys under each key table.

    Each cyclic entry is brought to its least rotation after relabeling,
    so for tuples with the same entry lengths, equal keys mean equal
    relabeled tuples.
    """
    keys = bytes(key_codes([c for w in entries for c in w], n))
    spans = []
    lo = 0
    for w, cyc in zip(entries, cyclic):
        hi = lo + len(w)
        if cyc and hi - lo > 1:
            spans.append((lo, hi))
        lo = hi
    for kt in key_tables:
        moved = keys.translate(kt)
        if not spans:
            yield moved
            continue
        parts = []
        pos = 0
        for lo, hi in spans:
            seg = moved[lo:hi]
            s = least_rotation(seg)
            parts += (moved[pos:lo], seg[s:], seg[:s])
            pos = hi
        parts.append(moved[pos:])
        yield b"".join(parts)


def canonical_tuple(entries, cyclic, key_tables, n):
    """Lex-least relabeling of a tuple of code tuples over the key tables.

    cyclic[k] marks entry k as cyclic; it comes back at its least rotation.
    """
    best = min(relabeled_keys(entries, cyclic, key_tables, n))
    decode = tuple([k + 1 if k < n else n - k - 1 for k in range(2 * n)])
    out = []
    lo = 0
    for w in entries:
        hi = lo + len(w)
        out.append(tuple([decode[k] for k in best[lo:hi]]))
        lo = hi
    return tuple(out)
