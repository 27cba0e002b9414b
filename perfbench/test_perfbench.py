"""Tests of the benchmark itself: seeding, trace counts and answer checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

DUMP_BLOCKS = (
    "import json, sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
    "print(json.dumps([workloads.orbit_block(7, 0), workloads.peak_block(7, 0), "
    "workloads.translator_block(7, 0)]))"
)


def _blocks(seed):
    return [workloads.WORKLOADS[w][0](seed, 0) for w in ("orbit", "peak", "translator")]


def test_same_seed_gives_byte_identical_instances_across_processes():
    here = json.dumps(_blocks(7)).encode()
    code = DUMP_BLOCKS.format(src=run.SRC, here=HERE)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=120
    )
    assert child.stdout.strip() == here


def test_another_seed_gives_other_instances():
    for a, b in zip(_blocks(7), _blocks(8)):
        assert json.dumps(a) != json.dumps(b)


def test_generated_bases_match_the_library_descent():
    from whitehead import lengthfn

    rng = workloads._block_rng("test", 0, 0)
    for _ in range(30):
        rank = rng.choice([2, 3])
        entries = workloads._word_set(rank, rng, 2, 8)
        start = workloads._random_automorphism(rank, rng.randint(0, 4), rng)
        mine, _ = workloads._descend(entries, start)
        lib = lengthfn.descend(
            workloads._word_set_obj(rank, entries), start=workloads.automorphism(rank, start)
        ).basis
        assert [w.codes for w in lib.forward] == list(mine[0])
        assert [w.codes for w in lib.backward] == list(mine[1])


def _traced_counts(workload, instances):
    run_fn = workloads.WORKLOADS[workload][1]
    objs = [workloads.materialize(workload, inst) for inst in instances]
    with tracing.Tracer() as tracer:
        results, errors, _ = run.timed_pass(run_fn, objs)
    assert not any(errors)
    counts = {k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"}
    return counts, results


@pytest.mark.parametrize("workload", ["orbit", "peak", "translator"])
def test_trace_counts_repeat_exactly(workload):
    workloads.setup(workload)
    block = workloads.WORKLOADS[workload][0](3, 0)
    if workload == "orbit":
        # the rank-2 and rank-3 instances; the rank-4 level set is slow
        block = [inst for inst in block if inst["rank"] < 4]
    first, results = _traced_counts(workload, block)
    second, _ = _traced_counts(workload, block)
    assert first == second
    assert any(first.values())
    failed, problems = run.check_answers(workload, block, results, [None] * len(block))
    assert failed == 0 and problems == []


def test_tracer_restores_every_binding():
    from whitehead import bases, cayley_gersten, peak_reduction, words

    before = (bases.fold, cayley_gersten.fold, words.multiply, cayley_gersten.multiply,
              peak_reduction.distance, bases.Automorphism.__dict__["__post_init__"])
    with tracing.Tracer():
        assert cayley_gersten.fold is bases.fold is not before[0]
        assert peak_reduction.distance is cayley_gersten.distance is not before[4]
    after = (bases.fold, cayley_gersten.fold, words.multiply, cayley_gersten.multiply,
             peak_reduction.distance, bases.Automorphism.__dict__["__post_init__"])
    assert after == before


# -- answer checks reject corrupted answers --------------------------------------


def _answered(workload, pick):
    workloads.setup(workload)
    block_fn, run_fn, answer_fn, _ = workloads.WORKLOADS[workload]
    inst = next(i for i in block_fn(5, 0) if pick(i))
    return inst, answer_fn(run_fn(workloads.materialize(workload, inst)))


def _check(workload, inst, answer):
    return workloads.WORKLOADS[workload][3](inst, answer)


def test_orbit_positive_check_rejects_a_tampered_certificate_image():
    inst, answer = _answered("orbit", lambda i: i["equivalent"] and i["rank"] == 3)
    assert _check("orbit", inst, answer) == []
    bad = copy.deepcopy(answer)
    bad["forward"][0] = bad["forward"][0] + (1,)
    assert _check("orbit", inst, bad)
    assert _check("orbit", inst, None)


def test_orbit_negative_check_rejects_a_certificate_and_an_unseparated_pair():
    inst, answer = _answered("orbit", lambda i: not i["equivalent"] and i["rank"] == 2)
    assert answer is None and _check("orbit", inst, None) == []
    ident = {"forward": [(1,), (2,)], "backward": [(1,), (2,)]}
    assert _check("orbit", inst, ident)
    unseparated = dict(inst, t=inst["s"])
    assert _check("orbit", unseparated, None)


def test_peak_check_rejects_a_wrong_distance_and_a_tampered_step():
    inst, answer = _answered("peak", lambda i: i["bin"] == 1)
    assert answer["steps"] and _check("peak", inst, answer) == []
    short = dict(answer, d0=len(answer["steps"]) - 1)
    assert _check("peak", inst, short)
    low = dict(answer, d0=1)
    assert _check("peak", inst, low)
    tampered = copy.deepcopy(answer)
    tampered["steps"][0]["forward"] = tampered["steps"][0]["forward"][::-1]
    assert _check("peak", inst, tampered)
    swapped = dict(answer, equal=[-t for t in answer["equal"]])
    assert _check("peak", inst, swapped)


def test_translator_check_rejects_a_tampered_label_and_a_failed_check():
    inst, answer = _answered("translator", lambda i: i["rank"] == 3 and i["words"][0][1])
    assert _check("translator", inst, answer) == []
    left, right = answer["paths"][0]
    bad = dict(answer, paths=[(left + (1,), right)] + answer["paths"][1:])
    assert _check("translator", inst, bad)
    bad = dict(answer, paths=[(left, right + (2,))] + answer["paths"][1:])
    assert _check("translator", inst, bad)
    assert _check("translator", inst, dict(answer, is_translator=False))


# -- the command -----------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    import cliprobe

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = set(tracing.Tracer().metrics())
    per_layer |= {f"cli.{sub}.cold_ms" for sub in cliprobe.SUBCOMMANDS} | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "instances_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"
    }


def test_tail_percentile_keeps_ten_instances_beyond():
    lat = [float(i) for i in range(1, 201)]
    assert run.tail_percentile(lat, 95) == (95, 190.0, 10)
    assert run.tail_percentile(lat[:150], 95) == (90, 135.0, 15)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
