"""The benchmark's own tests, at tiny scale.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    WORKLOADS, Model, Tally, build_store, make_inputs, run_workload, serve,
)
from layers import (  # noqa: E402
    DEVICE_READS, DEVICE_WRITES, INDEX_METHODS, LayerTimer,
)

DEVICE_METHODS = (*DEVICE_READS, *DEVICE_WRITES)


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name], n_keys=3000, requests=60, warmup=20,
    )


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
        "workloads": {w["name"] for w in spec["workloads"]},
    }


@pytest.mark.parametrize("name", ["read-alex", "write-alex"])
def test_wrappers_leave_answers_and_ledger_unchanged(name):
    w = tiny(name)
    inp = make_inputs(w, seed=7)
    results = []
    for timer in (None, LayerTimer()):
        store = build_store(w, inp.items)
        tally = Tally()
        if timer is not None:
            timer.install(store)
        results.append(serve(store, Model(inp.items), inp.requests, w,
                             tally, timer))
        assert tally.failed == 0, tally.first_error
        if timer is not None:
            assert timer.charge_calls > 0
            assert timer.time("index") > 0 and timer.time("pmem") > 0
            timer.uninstall()
            for obj, names in ((store.index, INDEX_METHODS),
                               (store.device, DEVICE_METHODS),
                               (store.perf, ("charge",))):
                assert not set(vars(obj)) & set(names)
    plain, traced = results
    assert plain.ledger == traced.ledger
    assert plain.units == traced.units


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = tiny(name)
    a, b, c = make_inputs(w, 3), make_inputs(w, 3), make_inputs(w, 4)
    assert a == b
    assert a.requests != c.requests
    kinds = [op for op, _ in a.requests]
    assert {"get", "put", "scan"} == set(kinds)
    assert len(kinds) == w.requests


def test_model_scan_merges_inserted_keys():
    m = Model([(10, 1), (20, 2), (30, 3)])
    m.put([(15, 9), (20, 5)])
    assert m.scan([11, 0], 3) == [
        [(15, 9), (20, 5), (30, 3)], [(10, 1), (15, 9), (20, 5)],
    ]
    assert m.get([15, 16]) == [9, None]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_metric_names_are_declared_and_ledger_repeats(name):
    names = declared()
    assert name in names["workloads"]
    w = tiny(name)
    runs = [run_workload(w, 5, 0.01, trace) for trace in (False, False, True)]
    for r, trace in zip(runs, (0, 0, 1)):
        assert r["correct"] and r["failed"] == 0
        assert r["attempted"] > 0
        assert set(r["metrics"]) == names[trace]
    first, again, traced = runs
    assert first["context"]["ledger"] == again["context"]["ledger"]
    assert first["context"]["ledger"] == traced["context"]["ledger"]
    sim = first["metrics"]["sim_ns_per_op"]["value"]
    assert sim == again["metrics"]["sim_ns_per_op"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-alex",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
