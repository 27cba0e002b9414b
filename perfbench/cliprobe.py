"""Cold-process probe of every ``wh`` subcommand.

Each subcommand runs once as ``python -m whitehead.cli <sub> --json`` in a
fresh interpreter on a tiny seeded input.  The parsed output must equal
the payload the library gives for the same input in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

from whitehead import bases, cayley_gersten, peak_reduction, search
from whitehead.lengthfn import WordSet
from whitehead.words import Word

import workloads

SUBCOMMANDS = ("minimize", "equiv", "translator", "distance", "peak-reduce", "gersten-dot")


def _texts(entries):
    return ["~" + Word(2, c).to_text() if cyc else Word(2, c).to_text() for cyc, c in entries]


def _inputs(seed):
    """Rank-2 inputs: one orbit positive pair and one small peak pair."""
    orbit = workloads.orbit_block(seed, 0)[0]
    peak = min(workloads.peak_block(seed, 0), key=lambda inst: inst["coord"])
    return {
        "s": {"rank": 2, "words": _texts(orbit["s"])},
        "t": {"rank": 2, "words": _texts(orbit["t"])},
        "words": {"rank": 2, "words": _texts(peak["words"])},
        "x": {"rank": 2, "images": [Word(2, c).to_text() for c in peak["x"][0]]},
        "y": {"rank": 2, "images": [Word(2, c).to_text() for c in peak["y"][0]]},
    }


def _library_payloads(inp):
    """What each subcommand should print, computed in process."""
    s = WordSet.parse(2, inp["s"]["words"])
    t = WordSet.parse(2, inp["t"]["words"])
    words = WordSet.parse(2, inp["words"]["words"])
    x = bases.Automorphism.from_json_dict(inp["x"])
    y = bases.Automorphism.from_json_dict(inp["y"])
    res = search.minimize_tuple(s)
    cert = search.orbit_equivalent(s, t)
    v = cayley_gersten.krstic_translator(x, y)
    dist = cayley_gersten.distance(x, y)
    return {
        "minimize": {
            "h_min": res.report.total,
            "minimal": list(res.minimal.to_texts()),
            "basis": [w.to_text() for w in res.basis.forward],
            "path": [d.to_json_dict() for d in res.path],
        },
        "equiv": (
            {"equivalent": False}
            if cert is None
            else {"equivalent": True, "certificate": cert.to_json_dict()}
        ),
        "translator": {
            "vertices": [w.to_text() for w in v.sorted()],
            "size": len(v),
            "is_translator": cayley_gersten.is_translator(x, y, v),
        },
        "distance": {
            "d": dist.distance,
            "witness": [w.to_text() for w in dist.witness.sorted()],
        },
        "peak-reduce": peak_reduction.peak_reduce(x, y, words).to_json_dict(),
        "gersten-dot": {
            "dot": cayley_gersten.to_dot(cayley_gersten.build_gersten_graph(x, y, v))
        },
    }


def probe(root, src, seed):
    """Return ({subcommand: cold ms}, [problems])."""
    inp = _inputs(seed)
    want = _library_payloads(inp)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    cold, problems = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        files = {}
        for key, obj in inp.items():
            files[key] = os.path.join(tmp, f"{key}.json")
            with open(files[key], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        args = {
            "minimize": [files["s"]],
            "equiv": [files["s"], files["t"]],
            "translator": ["-x", files["x"], "-y", files["y"]],
            "distance": ["-x", files["x"], "-y", files["y"]],
            "peak-reduce": ["-x", files["x"], "-y", files["y"], files["words"]],
            "gersten-dot": ["-x", files["x"], "-y", files["y"]],
        }
        for sub in SUBCOMMANDS:
            cmd = [sys.executable, "-m", "whitehead.cli", sub, "-r", "2", "--json", *args[sub]]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                                  timeout=60)
            cold[sub] = (time.perf_counter() - t0) * 1000.0
            if proc.returncode != 0:
                problems.append(f"wh {sub} exited {proc.returncode}: {proc.stderr.strip()}")
            elif json.loads(proc.stdout) != want[sub]:
                problems.append(f"wh {sub} output differs from the library result")
    return cold, problems
