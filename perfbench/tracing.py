"""Per-layer tracing from outside the package.

Boundary functions are wrapped by rebinding every name that refers to
them in every ``whitehead`` module (``fold`` lives in both ``bases`` and
``cayley_gersten``, for example), and methods on their class, so calls
made inside the package are seen too.  Spans are aggregated per name into
a call count and self time (span time minus the time of its child
spans); the kernels below the algorithm layer are called millions of
times, so no per-call record is kept.
"""

from __future__ import annotations

import sys
import time

from whitehead import peak_reduction
from whitehead.errors import LimitExceeded

# (module, attribute or Class.method, span name)
BOUNDARIES = [
    ("_kernels", "free_reduce", "kernels.free_reduce"),
    ("_kernels", "cyclic_bounds", "kernels.cyclic_bounds"),
    ("_kernels", "key_codes", "kernels.key_codes"),
    ("_kernels", "least_rotation", "kernels.least_rotation"),
    ("_kernels", "substitute", "kernels.substitute"),
    ("_kernels", "relabel", "kernels.relabel"),
    ("_kernels", "build_subst_table", "kernels.build_subst_table"),
    ("_kernels", "canonical_tuple", "kernels.canonical_tuple"),
    ("words", "multiply", "words.multiply"),
    ("bases", "fold", "bases.fold"),
    ("bases", "Automorphism.__post_init__", "bases.automorphism_check"),
    ("bases", "compose", "bases.compose"),
    ("bases", "invert_images", "bases.invert_images"),
    ("lengthfn", "descend", "lengthfn.descend"),
    ("lengthfn", "is_local_minimum", "lengthfn.is_local_minimum"),
    ("lengthfn", "length_report", "lengthfn.length_report"),
    ("search", "orbit_equivalent", "search.orbit_equivalent"),
    ("search", "_canonicalize", "search.canonicalize"),
    ("search", "_bfs_level_set", "search.level_set"),
    ("search", "_CertificateBuilder.push_transform", "search.certificate"),
    ("search", "_CertificateBuilder.push_permutation", "search.certificate"),
    ("search", "_CertificateBuilder.build", "search.certificate"),
    ("cayley_gersten", "distance", "cayley_gersten.distance"),
    ("cayley_gersten", "right_forest_component", "cayley_gersten.right_forest_component"),
    ("cayley_gersten", "krstic_translator", "cayley_gersten.krstic_translator"),
    ("cayley_gersten", "is_translator", "cayley_gersten.is_translator"),
    ("cayley_gersten", "build_gersten_graph", "cayley_gersten.build_gersten_graph"),
    ("cayley_gersten", "represent", "cayley_gersten.represent"),
    ("peak_reduction", "peak_reduce", "peak_reduction.peak_reduce"),
    ("peak_reduction", "case1_step", "peak_reduction.case1_step"),
    ("peak_reduction", "case2_step", "peak_reduction.case2_step"),
    ("peak_reduction", "build_case_context", "peak_reduction.build_case_context"),
]

DISTANCE = "cayley_gersten.distance"


def _explored(result, exc):
    if isinstance(exc, LimitExceeded):
        return exc.states or 0
    return 0 if result is None else result.explored


def _level_set_states(result, exc):
    if isinstance(exc, LimitExceeded):
        return exc.states or 0
    return 0 if result is None else len(result[0])


def _is_step(result, exc):
    return int(isinstance(result, peak_reduction.Step))


# Work counters read off a span's result: name -> (counter, function)
COUNTERS = {
    DISTANCE: ("cayley_gersten.distance.explored", _explored),
    "search.level_set": ("search.level_set.states", _level_set_states),
    "peak_reduction.peak_reduce": ("peak_reduction.steps", _is_step),
}


class Stat:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.stats = {name: Stat() for _, _, name in BOUNDARIES}
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self.counters["cayley_gersten.distance.folds"] = 0
        self._stack = []  # one [child time, name] per open span
        self._restore = []

    def _wrap(self, fn, name):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counters = self.counters
        under_distance = name == "bases.fold"

        def traced(*args, **kwargs):
            if under_distance and any(f[1] == DISTANCE for f in stack):
                counters["cayley_gersten.distance.folds"] += 1
            frame = [0.0, name]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if counter is not None:
                    counters[counter[0]] += counter[1](result, exc)

        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("whitehead.") and m]
        for mod_name, attr, name in BOUNDARIES:
            module = sys.modules[f"whitehead.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        return self

    def __exit__(self, *exc_info):
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()
        return False

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        s, c = self.stats, self.counters
        out = {}

        def calls(name):
            out[f"{name}.calls"] = (s[name].calls, "count")

        def self_s(name):
            out[f"{name}.self_s"] = (s[name].self_time, "s")

        for k in ("substitute", "canonical_tuple", "least_rotation", "free_reduce"):
            calls(f"kernels.{k}")
        out["kernels.self_s"] = (
            sum(v.self_time for k, v in s.items() if k.startswith("kernels.")), "s"
        )
        calls("words.multiply")
        self_s("words.multiply")
        for name in ("bases.fold", "bases.automorphism_check"):
            calls(name)
            self_s(name)
        calls("bases.compose")
        self_s("bases.invert_images")
        for name in ("lengthfn.descend", "lengthfn.is_local_minimum"):
            calls(name)
            self_s(name)
        calls("lengthfn.length_report")
        self_s("search.orbit_equivalent")
        calls("search.canonicalize")
        self_s("search.canonicalize")
        self_s("search.level_set")
        out["search.level_set.states"] = (c["search.level_set.states"], "count")
        self_s("search.certificate")
        calls(DISTANCE)
        self_s(DISTANCE)
        explored = c["cayley_gersten.distance.explored"]
        out["cayley_gersten.distance.explored"] = (explored, "count")
        folds = c["cayley_gersten.distance.folds"]
        out["cayley_gersten.distance.fold_ratio"] = (
            folds / explored if explored else 0.0, "1"
        )
        calls("cayley_gersten.right_forest_component")
        self_s("cayley_gersten.right_forest_component")
        for k in ("krstic_translator", "is_translator", "build_gersten_graph", "represent"):
            self_s(f"cayley_gersten.{k}")
        calls("peak_reduction.peak_reduce")
        self_s("peak_reduction.peak_reduce")
        calls("peak_reduction.case1_step")
        calls("peak_reduction.case2_step")
        self_s("peak_reduction.build_case_context")
        out["peak_reduction.steps"] = (c["peak_reduction.steps"], "count")
        return out
