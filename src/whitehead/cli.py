"""Command line front end.

Thin argparse shell over the library: minimization, orbit equivalence,
translator construction, distance, one reduction step, and DOT export.
Inputs are small JSON files; word sets use the "~" prefix for cyclic
entries, either as bare strings or as {"kind", "w"} objects.  With
``--json`` every command prints one machine-readable object with sorted
keys, so identical inputs give identical bytes.

Exit codes: 0 for a completed run (including a negative equivalence
answer), 2 for malformed input (negative budgets included), 3 for a
search that overran its budget, 4 for a violated precondition, 5 for a
failed internal invariant (a TheoremViolation: a bug in this package).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .bases import Automorphism
from .cayley_gersten import (
    VertexSet,
    build_gersten_graph,
    distance,
    is_translator,
    krstic_translator,
    to_dot,
)
from .errors import (
    InvalidLetter,
    KindMismatch,
    LimitExceeded,
    NotABasis,
    PreconditionViolated,
    RankMismatch,
    TheoremViolation,
)
from .lengthfn import WordSet
from .peak_reduction import Equal, peak_reduce
from .search import SearchLimits, minimize_tuple, orbit_equivalent
from .words import Word


class _InputError(Exception):
    """Malformed input with a user-facing message."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON ({exc})") from exc


def _check_rank(path: str, rank: int, found) -> None:
    if int(found) != rank:
        raise _InputError(f"{path}: file rank {found} does not match --rank {rank}")


def _load_words(path: str, rank: int) -> WordSet:
    obj = _load_json(path)
    try:
        _check_rank(path, rank, obj["rank"])
        entries = obj["words"]
        if all(isinstance(e, str) for e in entries):
            return WordSet.parse(rank, entries)
        return WordSet.from_json_dict({"rank": rank, "words": entries})
    except _InputError:
        raise
    except (KeyError, TypeError, ValueError, InvalidLetter) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_basis(path: str, rank: int) -> Automorphism:
    obj = _load_json(path)
    try:
        _check_rank(path, rank, obj["rank"])
        return Automorphism.from_json_dict({"rank": rank, "images": obj["images"]})
    except _InputError:
        raise
    except (KeyError, TypeError, ValueError, InvalidLetter) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _show(w: Word) -> str:
    return w.to_text() or "1"


def _limits(args) -> SearchLimits:
    return SearchLimits(max_states=args.max_states)


def _cmd_minimize(args) -> Tuple[dict, List[str]]:
    words = _load_words(args.words, args.rank)
    res = minimize_tuple(words)
    payload = {
        "h_min": res.report.total,
        "minimal": list(res.minimal.to_texts()),
        "basis": [w.to_text() for w in res.basis.forward],
        "path": [d.to_json_dict() for d in res.path],
    }
    lines = [
        f"h_min: {res.report.total}",
        f"minimal: {' '.join(res.minimal.to_texts()) or '-'}",
        f"basis: {' '.join(_show(w) for w in res.basis.forward)}",
        f"steps: {len(res.path)}",
    ]
    return payload, lines


def _cmd_equiv(args) -> Tuple[dict, List[str]]:
    s1 = _load_words(args.first, args.rank)
    s2 = _load_words(args.second, args.rank)
    cert = orbit_equivalent(s1, s2, limits=_limits(args))
    if cert is None:
        return {"equivalent": False}, ["equivalent: no"]
    payload = {"equivalent": True, "certificate": cert.to_json_dict()}
    lines = [
        "equivalent: yes",
        f"transforms: {len(cert.transforms)}",
        f"images: {' '.join(_show(w) for w in cert.automorphism.forward)}",
    ]
    return payload, lines


def _cmd_translator(args) -> Tuple[dict, List[str]]:
    x = _load_basis(args.x, args.rank)
    y = _load_basis(args.y, args.rank)
    v = krstic_translator(x, y)
    ok = is_translator(x, y, v)
    payload = {
        "vertices": [w.to_text() for w in v.sorted()],
        "size": len(v),
        "is_translator": ok,
    }
    lines = [
        f"size: {len(v)}",
        f"vertices: {' '.join(_show(w) for w in v.sorted())}",
        f"is_translator: {'yes' if ok else 'no'}",
    ]
    return payload, lines


def _cmd_distance(args) -> Tuple[dict, List[str]]:
    x = _load_basis(args.x, args.rank)
    y = _load_basis(args.y, args.rank)
    res = distance(x, y, max_size=args.max_size, limits=_limits(args))
    payload = {
        "d": res.distance,
        "witness": [w.to_text() for w in res.witness.sorted()],
    }
    lines = [
        f"d: {res.distance}",
        f"witness: {' '.join(_show(w) for w in res.witness.sorted())}",
    ]
    return payload, lines


def _cmd_peak_reduce(args) -> Tuple[dict, List[str]]:
    x = _load_basis(args.x, args.rank)
    y = _load_basis(args.y, args.rank)
    words = _load_words(args.words, args.rank)
    res = peak_reduce(x, y, words, limits=_limits(args))
    payload = res.to_json_dict()
    if isinstance(res, Equal):
        lines = [
            "equal: yes",
            f"permutation: {' '.join(payload['perm']['targets'])}",
        ]
    else:
        lines = [
            f"case: {res.case}",
            f"y_dag: {payload['y_dag']}",
            f"Yprime: {' '.join(payload['Yprime'])}",
            f"Vprime: {' '.join(t or '1' for t in payload['Vprime'])}",
        ]
    return payload, lines


def _cmd_gersten_dot(args) -> Tuple[dict, List[str]]:
    x = _load_basis(args.x, args.rank)
    y = _load_basis(args.y, args.rank)
    v = krstic_translator(x, y)
    dot = to_dot(build_gersten_graph(x, y, v))
    return {"dot": dot}, [dot.rstrip("\n")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wh", description="Free-group basis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bases=False, max_size=False):
        p.add_argument("-r", "--rank", type=int, required=True)
        p.add_argument("--max-states", type=int, default=1_000_000)
        p.add_argument("--json", action="store_true", dest="as_json")
        if bases:
            p.add_argument("-x", required=True, metavar="BASIS_JSON")
            p.add_argument("-y", required=True, metavar="BASIS_JSON")
        if max_size:
            p.add_argument("--max-size", type=int, default=None)

    p = sub.add_parser("minimize", help="descend a word set to minimal length")
    common(p)
    p.add_argument("words", metavar="WORDS_JSON")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("equiv", help="decide orbit equivalence of two word sets")
    common(p)
    p.add_argument("first", metavar="WORDS_JSON")
    p.add_argument("second", metavar="WORDS_JSON")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("translator", help="build the closure translator")
    common(p, bases=True)
    p.set_defaults(func=_cmd_translator)

    p = sub.add_parser("distance", help="distance between two bases")
    common(p, bases=True, max_size=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("peak-reduce", help="one reduction step between bases")
    common(p, bases=True)
    p.add_argument("words", metavar="WORDS_JSON")
    p.set_defaults(func=_cmd_peak_reduce)

    p = sub.add_parser("gersten-dot", help="DOT export of the translator graph")
    common(p, bases=True)
    p.set_defaults(func=_cmd_gersten_dot)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.rank < 1:
        print("error: rank must be at least 1", file=sys.stderr)
        return 2
    try:
        payload, lines = args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotABasis, InvalidLetter, RankMismatch, KindMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TheoremViolation as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 5
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
