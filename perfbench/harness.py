"""Workloads, inputs, the client loop and the metrics of ``perfbench``.

See ``run.py`` for what each workload is for and how it was sized.  This
module holds the mechanics:

* :class:`Workload` — one named traffic mix and its sizes.
* :func:`make_inputs`, :func:`make_pass` — the seeded key set, bulk
  items and *passes* of requests.  The program receives only these
  lists.
* :class:`Model` — a dict model of the store built from those same
  inputs; every answer is checked against it.
* :func:`serve` — the closed-loop client: one request at a time, each
  timed on the wall clock, each answer checked outside the timer.
* :func:`run_workload` — setup, warm-up, recovery, then timed passes
  until the time budget is spent; returns the result line's fields.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.concurrency.parallel import parallel_sharded_store
from repro.concurrency.supervise import FaultPlan
from repro.perf.context import PerfContext
from repro.perf.events import Counters, Event
from repro.registry import resolve
from repro.store.viper import ViperStore
from repro.workloads import ScrambledZipfianGenerator, ycsb_keys

from layers import LayerTimer

OPS = ("get", "put", "scan")

#: Tail percentile reported for every request kind.  Each workload is
#: sized so a run pools well over 1000 samples of each kind, leaving at
#: least ten samples beyond it; the sample counts are stamped on the
#: context line of every result.
TAIL_PCT = 99

#: ``setup_s`` and ``recovery_s`` are medians of this many builds and
#: crash-recoveries: one sub-second sample swings by 15-20%.
SETUP_BUILDS = 7
RECOVERIES = 11

#: ``sim_ns_per_op`` and the ``perf.<event>_per_op`` rows come from the
#: first this many timed passes, a fixed amount of work per seed; every
#: run serves at least this many.
LEDGER_PASSES = 4

#: The ledger events whose per-op counts the traced run reports.
LEDGER_EVENTS = (
    Event.DRAM_HOP, Event.DRAM_SEQ, Event.COMPARE, Event.MODEL_EVAL,
    Event.KEY_MOVE, Event.NVM_READ, Event.NVM_WRITE, Event.ALLOC,
    Event.RETRAIN_KEY,
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one store.  Sizes are per *pass*, a
    seeded request list; the timed phase serves passes until its time
    is spent."""

    name: str
    index: str  # registry alias
    engine: bool  # 1-worker process-parallel engine instead of ViperStore
    n_keys: int  # bulk-loaded keys
    requests: int  # requests per pass
    mix: Tuple[float, float, float]  # shares of get / put / scan requests
    get_keys: int  # keys per get_many
    put_keys: int  # items per put_many
    fresh_puts: bool  # put fresh keys (store rebuilt per pass) or updates
    scan_starts: int  # starts per scan_many
    scan_len: int  # records per scan
    warmup: int  # untimed requests (a prefix of pass 0)


_READ_ALEX = Workload(
    name="read-alex", index="alex", engine=False, n_keys=100_000,
    requests=1000, mix=(0.80, 0.10, 0.10), get_keys=512, put_keys=16,
    fresh_puts=False, scan_starts=16, scan_len=50, warmup=300,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _READ_ALEX,
        Workload(
            name="write-alex", index="alex", engine=False, n_keys=200_000,
            requests=400, mix=(0.35, 0.35, 0.30), get_keys=128,
            put_keys=128, fresh_puts=True, scan_starts=16, scan_len=50,
            warmup=100,
        ),
        # read-alex's inputs, served through the engine.
        replace(_READ_ALEX, name="engine-alex", engine=True),
    )
}


# ----------------------------------------------------------------- inputs


@dataclass
class Inputs:
    items: List[Tuple[int, int]]  # sorted bulk-load items
    requests: List[Tuple[str, list]]  # pass 0: (op, keys|items|starts)
    probes: List[int]  # keys read by the post-recovery requests


def _counts(w: Workload) -> Tuple[int, int, int]:
    n_put = round(w.requests * w.mix[1])
    n_scan = round(w.requests * w.mix[2])
    return w.requests - n_put - n_scan, n_put, n_scan


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Deterministic in ``(w, seed)``: keys from ``ycsb_keys``, values and
    request keys from generators seeded with ``seed``."""
    rng = random.Random(f"perfbench:{seed}")
    loaded = ycsb_keys(w.n_keys, seed)
    items = [(k, rng.getrandbits(32)) for k in loaded]
    zipf = ScrambledZipfianGenerator(len(loaded), seed=seed)
    probes = [loaded[zipf.next()] for _ in range(RECOVERIES)]
    return Inputs(items, make_pass(w, seed, 0, loaded), probes)


def make_pass(w: Workload, seed: int, i: int,
              loaded: List[int]) -> List[Tuple[str, list]]:
    """Pass ``i``'s requests, deterministic in ``(w, seed, i)``.  Request
    keys are scrambled-zipfian over ``loaded``.  With ``fresh_puts`` the
    puts insert keys absent from ``loaded``, drawn from the same
    distribution and shuffled so each batch spans the whole key range."""
    rng = random.Random(f"perfbench:{seed}:{i}")
    zipf = ScrambledZipfianGenerator(len(loaded), seed=rng.getrandbits(32))
    n_get, n_put, n_scan = _counts(w)
    fresh: List[int] = []
    if w.fresh_puts:
        n_fresh = n_put * w.put_keys
        present = set(loaded)
        fresh = [k for k in ycsb_keys(n_fresh + 64, rng.getrandbits(32))
                 if k not in present][:n_fresh]
        rng.shuffle(fresh)

    def hot(n: int) -> List[int]:
        return [loaded[zipf.next()] for _ in range(n)]

    kinds = ["get"] * n_get + ["put"] * n_put + ["scan"] * n_scan
    rng.shuffle(kinds)
    requests: List[Tuple[str, list]] = []
    next_fresh = 0
    for op in kinds:
        if op == "get":
            keys = hot(w.get_keys)
            if w.fresh_puts:
                # A quarter of each read targets this pass's fresh keys:
                # hits on keys already inserted, misses on the rest.
                for j in range(0, len(keys), 4):
                    keys[j] = rng.choice(fresh)
            requests.append(("get", keys))
        elif op == "put":
            if w.fresh_puts:
                keys = fresh[next_fresh : next_fresh + w.put_keys]
                next_fresh += w.put_keys
            else:
                keys = hot(w.put_keys)
            requests.append(("put", [(k, rng.getrandbits(32)) for k in keys]))
        else:
            requests.append(("scan", hot(w.scan_starts)))
    return requests


# ------------------------------------------------------------------ model


class Model:
    """Expected store contents, maintained from the benchmark's inputs."""

    def __init__(self, items: List[Tuple[int, int]]):
        self.values: Dict[int, int] = dict(items)
        self.base = [k for k, _ in items]  # sorted loaded keys
        self.extra: List[int] = []  # sorted keys inserted since

    def get(self, keys: List[int]) -> List[Optional[int]]:
        return [self.values.get(k) for k in keys]

    def put(self, items: List[Tuple[int, int]]) -> None:
        for k, v in items:
            if k not in self.values:
                bisect.insort(self.extra, k)
            self.values[k] = v

    def scan(self, starts: List[int], count: int) -> List[List[tuple]]:
        out = []
        for s in starts:
            i = bisect.bisect_left(self.base, s)
            j = bisect.bisect_left(self.extra, s)
            keys = heapq.merge(self.base[i : i + count],
                               self.extra[j : j + count])
            out.append([(k, self.values[k]) for k in islice(keys, count)])
        return out


# ------------------------------------------------------------------ stores


def kill_plan(kills: int) -> FaultPlan:
    """Kill worker 0 on each of ``kills`` scalar calls, one per process
    generation.  The timed traffic uses only batch commands, so scalar
    ``get`` probes are the only commands these directives can match.  In
    generation k >= 1 the re-issued probe that triggered the respawn is
    call 1, so the next probe (call 2) is the one that kills it."""
    plan = FaultPlan()
    for inc in range(kills):
        plan.kill(worker=0, op="call", nth=1 if inc == 0 else 2,
                  incarnation=inc)
    return plan


def build_store(w: Workload, items, engine: Optional[bool] = None):
    """An empty store of ``w``'s kind, bulk-loaded with ``items``."""
    if w.engine if engine is None else engine:
        store = parallel_sharded_store(
            w.index, 1, restart_budget=RECOVERIES, backoff_base_s=0.0,
            fault_plan=kill_plan(RECOVERIES),
        )
    else:
        perf = PerfContext()
        store = ViperStore(resolve(w.index).build(perf), perf)
    try:
        store.bulk_load(items)
    except BaseException:
        close_store(store)
        raise
    return store


def close_store(store) -> None:
    close = getattr(store, "close", None)
    if close is not None:
        close()


# ----------------------------------------------------------------- client


@dataclass
class Tally:
    """Requests attempted and failed (raised or answered wrong)."""

    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = why


@dataclass
class PassResult:
    wall_s: float = 0.0  # summed request wall time
    units: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(OPS, 0)
    )
    lat: Dict[str, List[float]] = field(
        default_factory=lambda: {op: [] for op in OPS}
    )
    ledger: Optional[Counters] = None  # simulated events of the pass

    @property
    def ops(self) -> int:
        """Keys read, keys written and scans served."""
        return sum(self.units.values())


def serve(store, model: Model, requests, w: Workload, tally: Tally,
          timer: Optional[LayerTimer] = None) -> PassResult:
    """Replay ``requests`` in a closed loop; time and check each one."""
    out = PassResult()
    mark = store.perf.begin()
    for op, arg in requests:
        tally.attempted += 1
        if timer is not None:
            timer.op = op
        t0 = perf_counter()
        try:
            if op == "get":
                got = store.get_many(arg)
            elif op == "put":
                got = store.put_many(arg)
            else:
                got = store.scan_many(arg, w.scan_len)
        except Exception:
            tally.fail(f"{op} raised:\n{traceback.format_exc()}")
            continue
        dt = perf_counter() - t0
        out.wall_s += dt
        out.units[op] += len(arg)
        out.lat[op].append(dt)
        if op == "get":
            ok = got == model.get(arg)
        elif op == "put":
            model.put(arg)
            ok = got is None
        else:
            ok = [list(r) for r in got] == model.scan(arg, w.scan_len)
        if not ok:
            tally.fail(f"{op} answered wrong")
    out.ledger = store.perf.end(mark).counters
    return out


def recover_once(store, w: Workload, key: int, model: Model,
                 tally: Tally) -> float:
    """Crash the store (or kill the engine's worker), then time the first
    request served: recovery plus one scalar ``get``."""
    tally.attempted += 1
    if not w.engine:
        store.crash()
    t0 = perf_counter()
    try:
        if not w.engine:
            perf = store.perf
            store.recover(lambda: resolve(w.index).build(perf))
        got = store.get(key)
    except Exception:
        tally.fail(f"recovery raised:\n{traceback.format_exc()}")
        return float("nan")
    dt = perf_counter() - t0
    if got != model.values.get(key):
        tally.fail("post-recovery read answered wrong")
    return dt


# ---------------------------------------------------------------- metrics


def percentile(sorted_xs: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = -(-len(sorted_xs) * pct // 100)
    return sorted_xs[max(1, int(rank)) - 1]


def host_stamp() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _pool(results: List[PassResult]) -> PassResult:
    out = PassResult()
    for r in results:
        out.wall_s += r.wall_s
        for op in OPS:
            out.units[op] += r.units[op]
            out.lat[op].extend(r.lat[op])
    return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------------ run


class _Run:
    """One invocation's store(s), model(s) and tally; :meth:`close`
    shuts every store down."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.inputs = make_inputs(w, seed)
        self.tally = Tally()
        self.store = None
        self.model: Optional[Model] = None
        self.twin = None  # the engine's in-process twin (traced run)
        self.twin_model: Optional[Model] = None

    def _drop_store(self) -> None:
        if self.store is not None:
            close_store(self.store)
            self.store = None
        gc.collect()

    def setup(self, builds: int) -> List[float]:
        """Build ``builds`` times, keeping the last; returns their times."""
        times = []
        for _ in range(builds):
            self._drop_store()
            t0 = perf_counter()
            self.store = build_store(self.w, self.inputs.items)
            times.append(perf_counter() - t0)
        self.model = Model(self.inputs.items)
        return times

    def pass_requests(self, i: int) -> List[Tuple[str, list]]:
        """Requests of timed pass ``i``: pass 0 replayed, except that
        ``fresh_puts`` workloads draw new fresh keys for every pass, so
        the rare puts that expand or retrain a leaf are many distinct
        requests, not a few replayed ones."""
        if i == 0 or not self.w.fresh_puts:
            return self.inputs.requests
        loaded = [k for k, _ in self.inputs.items]
        return make_pass(self.w, self.seed, i, loaded)

    def fresh(self) -> None:
        """Rebuild the store for the next pass (untimed, gc-frozen)."""
        gc.unfreeze()
        self._drop_store()
        self.store = build_store(self.w, self.inputs.items)
        self.model = Model(self.inputs.items)
        gc.collect()
        gc.freeze()

    def warm_and_recover(self) -> Tuple[List[float], List[float]]:
        """The warm-up prefix, the scripted recoveries, then the warm-up
        prefix again, so the timed passes start warm and from the same
        allocator state as each other.  Returns the client-observed
        recovery latencies and, for the engine, the supervisor's own
        rebuild time of each."""
        w, inp = self.w, self.inputs
        warmup = inp.requests[: w.warmup]
        serve(self.store, self.model, warmup, w, self.tally)
        latencies, rebuilds = [], []
        for key in inp.probes:
            latencies.append(
                recover_once(self.store, w, key, self.model, self.tally)
            )
            if w.engine:
                rebuilds.append(self.store.supervisor.last_recovery_s[0])
        serve(self.store, self.model, warmup, w, self.tally)
        return latencies, rebuilds

    def close(self) -> None:
        gc.unfreeze()
        for s in (self.store, self.twin):
            if s is not None:
                close_store(s)
        self.store = self.twin = None


def _timed_passes(seconds: float, step: Callable[[], float]) -> None:
    """Call ``step`` (which returns the request seconds it spent) until
    ``seconds`` of request time are spent, and at least
    ``LEDGER_PASSES`` times.  A wall cap of three budgets bounds runs
    whose untimed work is slow."""
    spent = 0.0
    steps = 0
    cap = perf_counter() + 3 * seconds + 30
    while steps < LEDGER_PASSES or (
        spent < seconds and perf_counter() < cap
    ):
        spent += step()
        steps += 1


def _ledger(results: List[PassResult]) -> Tuple[Counters, int]:
    """Summed ledger and ops of the first ``LEDGER_PASSES`` passes."""
    ledger, ops = Counters(), 0
    for r in results[:LEDGER_PASSES]:
        ledger.add(r.ledger)
        ops += r.ops
    return ledger, ops


def _measure(run: _Run, seconds: float) -> Tuple[dict, dict]:
    """The untraced run: every end-to-end metric."""
    w = run.w
    setup_times = run.setup(SETUP_BUILDS)
    recoveries, _ = run.warm_and_recover()
    gc.collect()
    gc.freeze()
    passes: List[PassResult] = []

    def step() -> float:
        requests = run.pass_requests(len(passes))
        if w.fresh_puts:
            run.fresh()
        passes.append(serve(run.store, run.model, requests, w, run.tally))
        return passes[-1].wall_s

    _timed_passes(seconds, step)
    pooled = _pool(passes)
    metrics: Dict[str, Tuple[float, str]] = {
        "throughput_ops_s": (pooled.ops / pooled.wall_s, "1/s"),
    }
    samples = {}
    for op in OPS:
        xs = sorted(pooled.lat[op])
        samples[op] = len(xs)
        metrics[f"{op}_p50_ms"] = (statistics.median(xs) * 1e3, "ms")
        metrics[f"{op}_tail_ms"] = (percentile(xs, TAIL_PCT) * 1e3, "ms")
    ledger, ledger_ops = _ledger(passes)
    metrics.update({
        "setup_s": (statistics.median(setup_times), "s"),
        "recovery_s": (statistics.median(recoveries), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_ns_per_op": (
            run.store.perf.cost_model.time_ns(ledger) / ledger_ops, "ns"
        ),
    })
    context = {
        "passes": len(passes), "samples": samples,
        "pass_ops_s": [round(r.ops / r.wall_s) for r in passes],
        "tail": f"p{TAIL_PCT}", "setup_builds": SETUP_BUILDS,
        "recoveries": RECOVERIES, "ledger": ledger.as_dict(),
    }
    return metrics, context


def _trace(run: _Run, seconds: float) -> Tuple[dict, dict]:
    """The traced run: per-layer metrics, from passes that alternate
    untraced and traced on one store (for the engine, on an in-process
    twin fed the same requests, next to the engine's own passes)."""
    w, inp = run.w, run.inputs
    run.setup(1)
    _, rebuilds = run.warm_and_recover()
    if w.engine:
        run.twin = build_store(w, inp.items, engine=False)
        run.twin_model = Model(inp.items)
        serve(run.twin, run.twin_model, inp.requests[: w.warmup], w,
              run.tally)
    gc.collect()
    gc.freeze()
    timer = LayerTimer()
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    engine: List[PassResult] = []
    busy_ns = 0.0
    worker_ops = 0
    last_store = None  # the store of the latest traced pass

    def target():
        if w.engine:
            return run.twin, run.twin_model
        if w.fresh_puts:
            run.fresh()
        return run.store, run.model

    def step() -> float:
        nonlocal busy_ns, worker_ops, last_store
        requests = run.pass_requests(len(traced))
        spent = 0.0
        if w.engine:
            eng = run.store
            busy0, ops0 = sum(eng.busy_ns), sum(eng.worker_ops)
            engine.append(serve(eng, run.model, requests, w, run.tally))
            busy_ns += sum(eng.busy_ns) - busy0
            worker_ops += sum(eng.worker_ops) - ops0
            spent += engine[-1].wall_s
        store, model = target()
        plain.append(serve(store, model, requests, w, run.tally))
        store, model = target()
        last_store = store
        timer.install(store)
        try:
            traced.append(serve(store, model, requests, w, run.tally, timer))
        finally:
            timer.uninstall()
        return spent + plain[-1].wall_s + traced[-1].wall_s

    _timed_passes(seconds, step)
    for a, b in zip(plain, traced):
        if a.ledger != b.ledger:
            run.tally.fail("traced pass charged a different simulated ledger")
    stats = last_store.index.stats()
    t, u = _pool(traced), _pool(plain)
    ledger, ledger_ops = _ledger(engine if w.engine else traced)
    us = 1e6
    m: Dict[str, Tuple[float, str]] = {
        "store.self_us_per_op": (
            (t.wall_s - timer.time("index") - timer.time("pmem"))
            / t.ops * us, "us",
        ),
        "index.get_us_per_key": (
            _per(timer.time("index", "get"), t.units["get"]) * us, "us"),
        "index.scan_us_per_scan": (
            _per(timer.time("index", "scan"), t.units["scan"]) * us, "us"),
        "index.write_us_per_key": (
            _per(timer.time("index", "put"), t.units["put"]) * us, "us"),
        "index.retrain_count": (stats.retrain_count, "count"),
        "index.leaf_count": (stats.leaf_count, "count"),
        "index.depth_max": (stats.depth_max, "count"),
        "pmem.read_us_per_record": (
            _per(timer.time("pmem", "read"), timer.count("pmem", "read"))
            * us, "us"),
        "pmem.write_us_per_record": (
            _per(timer.time("pmem", "write"), timer.count("pmem", "write"))
            * us, "us"),
        "perf.charge_calls_per_op": (timer.charge_calls / t.ops, "count/op"),
    }
    for e in LEDGER_EVENTS:
        m[f"perf.{e}_per_op"] = (
            getattr(ledger, e) / ledger_ops, "count/op")
    e_wall = sum(r.wall_s for r in engine)
    m.update({
        "engine.worker_us_per_op": (_per(busy_ns / 1e3, worker_ops), "us"),
        "engine.parent_us_per_op": (
            _per(e_wall * us - busy_ns / 1e3, worker_ops), "us"),
        "engine.inproc_us_per_op": (
            u.wall_s / u.ops * us if w.engine else 0.0, "us"),
        "engine.overhead_ratio": (
            _per(e_wall / sum(r.ops for r in engine), u.wall_s / u.ops)
            if w.engine else 0.0, "ratio"),
        "supervise.rebuild_s": (
            statistics.median(rebuilds) if rebuilds else 0.0, "s"),
        "supervise.journal_ops": (
            sum(len(a) for op, a in inp.requests[: w.warmup] if op == "put")
            if w.engine else 0, "count"),
        "supervise.restarts": (
            sum(run.store.supervisor.restarts_used) if w.engine else 0,
            "count"),
        "trace.overhead": (t.wall_s / u.wall_s, "ratio"),
    })
    context = {
        "passes": len(traced), "ledger": ledger.as_dict(),
        "engine_ops_routed": worker_ops,
        "engine_ops_sent": sum(r.ops for r in engine),
    }
    return m, context


def run_workload(w: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One benchmark invocation; returns the result line plus context.

    The engine client is pinned to the first CPU of its allowed set for
    the whole run, so the worker it forks inherits the same CPU."""
    affinity = os.sched_getaffinity(0)
    run = _Run(w, seed)
    try:
        if w.engine:
            os.sched_setaffinity(0, {min(affinity)})
        stamp = host_stamp()
        metrics, context = (_trace if trace else _measure)(run, seconds)
    finally:
        run.close()
        os.sched_setaffinity(0, affinity)
    context.update(stamp, workload=w.name, seed=seed, seconds=seconds,
                   trace=int(trace))
    if run.tally.first_error is not None:
        print(run.tally.first_error, file=sys.stderr)
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "context": context,
    }
