#!/usr/bin/env python3
"""Benchmark of the ``repro`` simulator's host speed.

Three workloads, each one fixed input run to completion (see
``workloads.py``): ``read-steady``, ``write-gc`` and ``fleet-governed``.
Run from the repository root::

    python3 perfbench/run.py                    # all workloads, one child each
    python3 perfbench/run.py --workload write-gc --seed 3 --seconds 20
    python3 perfbench/run.py --trace 1          # per-layer split
    python3 perfbench/run.py --steadiness 10    # spread of every metric

With ``--trace 0`` a run repeats the workload's timed call for
``--seconds`` seconds and reports the median of each end-to-end metric;
with ``--trace 1`` it reports the per-layer metrics of one span pass and
one profiler pass instead.  Metric names and units come from
``BENCHMARK.json``.  Every call's simulated outputs are hashed and
checked: against the pinned digest at the default seed, and for
repeatability on any seed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from probes import LAYERS, Probe, layer_self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

#: Fewest fresh interpreters timed per run for ``setup_s`` (median
#: reported); one is timed after every call anyway.
SETUP_SAMPLES = 12
#: Fewest timed calls per run, however long each takes.
MIN_REPS = 3
#: Steps of the reference kernel: 0.15-0.3 s on a 2-vCPU shared VM, long
#: enough to average out most of the host's sub-second noise.
REFERENCE_STEPS = 300_000
#: The set-up reference, timed in a fresh interpreter: an import of the
#: libraries that ``import repro`` loads (numpy and the standard library),
#: then 100 frozen dataclasses made.  None of it is ``repro``'s code.  It
#: has the same mix of work as ``import repro``: unmarshalling, module
#: bodies, extension loading and, for about a third, the code generation
#: of ``@dataclass``.  That last part matters: on a 2-vCPU VM a busy loop
#: on the other vCPU slowed set-up 1.8x, and moved set-up over the imports
#: alone by 16-19 %, but set-up over this reference by 2-3 %.
IMPORT_REFERENCE = (
    "import time; t = time.perf_counter(); "
    "import numpy, ast, concurrent.futures.process, dataclasses, datetime, "
    "hashlib, heapq, inspect, json, logging, multiprocessing.connection, "
    "pickle, platform, shlex, subprocess, textwrap; "
    "[dataclasses.make_dataclass(f'C{i}', [('a', int), "
    "('b', float, dataclasses.field(default=0.0)), "
    "('c', str, dataclasses.field(default=''))], frozen=True) "
    "for i in range(100)]; "
    "print(time.perf_counter() - t)"
)
#: The set-up reference's time on that VM, idle.  ``setup_s`` is reported
#: in seconds of a host on which it takes this long.
IMPORT_REFERENCE_S = 0.25
#: Bytecode cache of the set-up children, inside the checkout.  They read
#: and write bytecode only there, whatever ``PYTHONDONTWRITEBYTECODE`` and
#: stale ``__pycache__`` directories say, so every timed set-up loads the
#: same, current bytecode.
PYCACHE = os.path.join(ROOT, ".perfbench-pycache")
#: Longest one child process of this script may take.
CHILD_TIMEOUT_S = 170
#: Host-time figures printed beside the gated metrics but not gated:
#: across runs on a shared host they spread by a fifth or more (the
#: ``*_ref`` metrics and ``setup_s`` are the same figures with the host's
#: phase divided out).
HOST_UNITS = {
    "wall_s": "s", "sim_ios_per_s": "1/s", "cpu_s": "s", "setup_host_s": "s",
}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


# -- one untraced run ---------------------------------------------------------


def reference_kernel(steps: int = REFERENCE_STEPS) -> float:
    """Time a fixed pure-Python event loop (generators, a heap, a dict).

    It shares no code with ``repro``, so a change to the program cannot
    move it; what moves it is the host's speed at that moment.  Shared
    hosts alternate between fast and slow phases tens of seconds long,
    and the ``*_ref`` metrics divide by this time, measured just before
    and just after each call, to take the phase out.
    """
    start = time.perf_counter()
    push, pop = heapq.heappush, heapq.heappop

    def proc(k):
        t = 0.0
        while True:
            t = yield t + (k % 5 + 1) * 1e-6

    procs = [proc(k) for k in range(32)]
    heap = [(next(p), k) for k, p in enumerate(procs)]
    heapq.heapify(heap)
    totals: dict[int, float] = {}
    for _ in range(steps):
        now, k = pop(heap)
        totals[k] = totals.get(k, 0.0) + now
        push(heap, (procs[k].send(now), k))
    return time.perf_counter() - start


@dataclass
class Rep:
    """One timed call: host wall and CPU time, the mean of the reference
    kernel's times just before and just after it, and what it produced."""

    wall_s: float
    cpu_s: float
    ref_s: float
    outcome: Optional[Outcome]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Reference:
    """Times the reference kernel on as many CPUs as the workload uses.

    Both CPUs of a shared host can be slowed at once, and a pooled
    workload feels that more than one thread does, so for a pooled
    workload the kernel runs in that many processes at once (kept alive,
    idle, between calls) and their mean time is the reference.  The
    processes are forked: a spawned pool would also start a resource
    tracker process that outlives this script.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._pool = None
        if width > 1:
            self._pool = ProcessPoolExecutor(
                width, mp_context=multiprocessing.get_context("fork")
            )

    def __call__(self) -> float:
        gc.collect()
        if self._pool is None:
            return reference_kernel()
        return statistics.mean(
            self._pool.map(reference_kernel, [REFERENCE_STEPS] * self.width)
        )

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def _attempt(call: Callable[[], object]):
    """``call()``, or ``None`` (with the traceback printed) if it raises."""
    try:
        return call()
    except Exception:  # noqa: BLE001 - counted as failed points
        traceback.print_exc()
        return None


def run_reps(
    workload, seconds: float, between: Optional[Callable[[], object]] = None
) -> list[Rep]:
    """Repeat the timed call until ``seconds`` have passed (at least
    :data:`MIN_REPS` times), calling ``between`` after each call.  Only
    ``execute`` is timed; its result is condensed after the clock
    stopped.  A call that raises is recorded with no outcome."""
    reps = []
    start = time.perf_counter()
    with Probe() as probe, Reference(workload.n_workers) as reference:
        before = reference()
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            cpu0 = time.process_time() + _children_cpu_s()
            t0 = time.perf_counter()
            result = _attempt(workload.execute)
            wall = time.perf_counter() - t0
            cpu = time.process_time() + _children_cpu_s() - cpu0
            outcome = None
            if result is not None:
                outcome = _attempt(lambda: workload.outcome(result, probe))
            after = reference()
            reps.append(Rep(wall, cpu, (before + after) / 2, outcome))
            before = after
            if between is not None:
                between()
    return reps


def score(workload, outcomes: list[Optional[Outcome]], pinned: Optional[str]):
    """``(attempted, failed, reference_digest)`` over a run's outcomes.

    The reference is the pinned digest where there is one, else the
    first outcome's, so on other seeds every call must repeat it.  A
    call that raised or mismatched fails all its points; otherwise each
    point named by a validation violation fails.
    """
    reference = pinned
    attempted = failed = 0
    for outcome in outcomes:
        if outcome is None:
            attempted += workload.expected_points
            failed += workload.expected_points
            continue
        if reference is None:
            reference = outcome.digest
        attempted += outcome.points
        if outcome.digest != reference:
            failed += outcome.points
        else:
            failed += min(outcome.points, outcome.violating_points)
    return attempted, failed, reference


def child(*args: str, check: bool = True, env: Optional[dict] = None) -> str:
    """Run this script in a fresh interpreter and return its standard
    output (its standard error passes through)."""
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], env=env,
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=check,
    ).stdout


def setup_env() -> dict:
    """Environment of the set-up children: bytecode in :data:`PYCACHE`."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_probe(name: str, seed: int, size: str) -> float:
    """Host seconds of ``import repro`` plus input building in this
    (fresh) interpreter."""
    start = time.perf_counter()
    import repro  # noqa: F401 - timed: the import is part of set-up

    WORKLOADS[name](seed, size).setup()
    return time.perf_counter() - start


def setup_sample(probe_args: tuple[str, ...]) -> tuple[float, float]:
    """``(setup_s, host seconds)`` of one set-up in a fresh interpreter.
    ``setup_s`` scales the host seconds to :data:`IMPORT_REFERENCE_S` by
    the set-up reference, timed in another fresh interpreter just after."""
    env = setup_env()
    host_s = float(child("--setup-probe", *probe_args, env=env))
    reference_s = float(
        subprocess.run(
            [sys.executable, "-c", IMPORT_REFERENCE], env=env,
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=True,
        ).stdout
    )
    return host_s * IMPORT_REFERENCE_S / reference_s, host_s


def rss_probe(name: str, seed: int, size: str) -> float:
    """Peak RSS in MiB of one call in this (fresh) interpreter: the
    highest of this process and the pool workers the call started."""
    workload = WORKLOADS[name](seed, size)
    workload.setup()
    with Probe() as probe:
        workload.outcome(workload.execute(), probe)
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def measure(
    name: str,
    seed: int,
    seconds: float,
    size: str = "full",
    pinned: Optional[str] = None,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """One untraced run: the end-to-end metrics of one workload.

    ``pinned`` overrides the workload's pinned digest (tests use it).
    ``peak_rss_mib`` comes from one call in a fresh interpreter, made
    first, inside the ``seconds``.  Set-up is timed in a fresh
    interpreter after every call, so its samples span the run like the
    calls do, and topped up to ``setup_samples``; one untimed set-up
    first fills :data:`PYCACHE`.
    """
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, size)
    probe_args = ("--workload", name, "--seed", str(seed), "--size", size)
    peak_rss_mib = float(child("--rss-probe", *probe_args))
    setup_sample(probe_args)
    setups: list[tuple[float, float]] = []

    def time_setup() -> None:
        setups.append(setup_sample(probe_args))

    workload.setup()
    reps = run_reps(
        workload, seconds - (time.perf_counter() - start), between=time_setup
    )
    while len(setups) < setup_samples:
        time_setup()
    done = [r for r in reps if r.outcome is not None]
    attempted, failed, digest = score(
        workload, [r.outcome for r in reps], pinned or workload.pinned_digest
    )
    values = {
        "setup_s": statistics.median(s[0] for s in setups),
        "setup_host_s": statistics.median(s[1] for s in setups),
    }
    if done:
        values.update(
            wall_s=statistics.median(r.wall_s for r in done),
            sim_ios_per_s=statistics.median(r.outcome.ios / r.wall_s for r in done),
            cpu_s=statistics.median(r.cpu_s for r in done),
            wall_ref=statistics.median(r.wall_s / r.ref_s for r in done),
            cpu_ref=statistics.median(r.cpu_s / r.ref_s for r in done),
            sim_ios_per_ref=statistics.median(
                r.outcome.ios * r.ref_s / r.wall_s for r in done
            ),
            peak_rss_mib=peak_rss_mib,
        )
    return {
        "workload": name,
        "reps": len(reps),
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "values": values,
    }


# -- one traced run -----------------------------------------------------------


def _ledger_point_walls(path: str) -> list[float]:
    walls = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("rec") == "point":
                walls.append(record.get("wall_s", 0.0))
    return walls


def _pooled_pass(workload) -> tuple[dict, Outcome, float]:
    """The pooled run with a ledger: executor metrics and its digest."""
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        ledger = os.path.join(tmp, "ledger.jsonl")
        with Probe(spans=True) as probe:
            start = time.perf_counter()
            result = workload.execute(ledger=ledger)
            wall = time.perf_counter() - start
            outcome = workload.outcome(result, probe)
        point_s = sum(_ledger_point_walls(ledger))
    finally:
        shutil.rmtree(tmp)
    batch_s = probe.span_s["executor.batch_s"]
    return (
        {
            "executor.batch_s": batch_s,
            "executor.point_s": point_s,
            "executor.efficiency": point_s / (batch_s * workload.n_workers),
            "executor.queue_wait_s": sum(probe.queue_waits),
            "executor.result_bytes": probe.counts["executor.result_bytes"],
        },
        outcome,
        wall,
    )


def trace(name: str, seed: int, seconds: float, size: str = "full") -> dict:
    """One traced run: the per-layer metrics of one workload.

    Untraced calls for ``seconds`` give the untraced wall time; then a
    span pass reads spans and counters, and a profiler pass splits self
    time by layer.  ``fleet-governed`` adds a pooled pass with a ledger
    for the executor metrics, and makes the untraced, span and profiler
    calls in-process (``n_workers=1``), so the tracing overhead compares
    like with like; their digest must equal the pooled one.
    """
    workload = WORKLOADS[name](seed, size)
    workload.setup()
    local = workload
    if workload.pooled:
        local = WORKLOADS[name](seed, size, n_workers=1)
        local.setup()
    untraced = run_reps(local, seconds)
    outcomes = [r.outcome for r in untraced]
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    executor = dict.fromkeys(
        ("executor.batch_s", "executor.point_s", "executor.efficiency",
         "executor.queue_wait_s", "executor.result_bytes"),
        0.0,
    )
    pooled_digest = None
    if workload.pooled:
        executor, pooled, pooled_wall = _pooled_pass(workload)
        outcomes.append(pooled)
        pooled_digest = pooled.digest
    with Probe(spans=True) as probe:
        start = time.perf_counter()
        result = local.execute()
        span_wall = time.perf_counter() - start
        spanned = local.outcome(result, probe)
    outcomes.append(spanned)
    with Probe() as profiled_probe:
        result, wall, self_s, calls = layer_self_times(local.execute)
        outcomes.append(local.outcome(result, profiled_probe))
    attempted, failed, digest = score(workload, outcomes, workload.pinned_digest)
    cross_check = pooled_digest is None or pooled_digest == spanned.digest
    if not cross_check:
        failed = attempted

    counts, spans = probe.counts, probe.span_s
    values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    values["other.self_s"] = self_s["other"]
    host_bytes = counts["ftl.host_bytes"]
    values.update(
        {
            "sim.events": counts["sim.events"],
            "sim.ios": spanned.ios,
            "sim.events_per_io": counts["sim.events"] / spanned.ios,
            "nand.reads": counts["nand.reads"],
            "nand.programs": counts["nand.programs"],
            "nand.erases": counts["nand.erases"],
            "ftl.gc_blocks_erased": counts["ftl.gc_blocks_erased"],
            "ftl.gc_pages_relocated": counts["ftl.gc_pages_relocated"],
            "ftl.write_amplification": (
                counts["ftl.nand_bytes"] / host_bytes if host_bytes else 0.0
            ),
            "power.trace_breakpoints": counts["power.trace_breakpoints"],
            "power.add_draw_calls": calls.get("power.add_draw_calls", 0),
            "power.meter_s": spans["power.meter_s"],
            "iogen.result_s": spans["iogen.result_s"],
            "core.build_device_s": spans["core.build_device_s"],
            "core.points": counts["core.points"],
            "fleet.allocate_s": spans["fleet.allocate_s"],
            "validate.check_s": spans["validate.check_s"],
            "trace.wall_s": wall,
            "trace.span_wall_s": span_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": wall / untraced_wall - 1.0,
            **executor,
        }
    )
    notes = [
        f"untraced median wall {untraced_wall:.4f} s over {len(untraced)} "
        f"calls; span pass {span_wall:.4f} s; profiler pass {wall:.4f} s "
        f"(tracing overhead {wall / untraced_wall - 1.0:+.1%})"
    ]
    if workload.pooled:
        notes.append(
            f"pooled pass with ledger {pooled_wall:.4f} s; untraced, span and "
            "profiler calls ran in-process (n_workers=1)"
        )
        notes.append(
            "executor cross-check: pooled digest "
            + ("equals" if cross_check else "DIFFERS FROM")
            + " the in-process digest"
        )
    return {
        "workload": name,
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "values": values,
        "notes": notes,
    }


def predictions(name: str, values: dict) -> list[str]:
    """Check the recorded baseline predictions that a traced run can see."""
    checks = []
    if name == "write-gc":
        checks.append(("ftl.gc_blocks_erased > 0", values["ftl.gc_blocks_erased"] > 0))
        checks.append(
            ("ftl.write_amplification > 1", values["ftl.write_amplification"] > 1)
        )
    if name == "read-steady":
        checks.append(
            ("GC counters are 0",
             values["ftl.gc_blocks_erased"] == values["ftl.gc_pages_relocated"] == 0)
        )
        shares = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
        checks.append(
            ("sim.self_s is the largest repro share",
             max(shares, key=shares.get) == "sim")
        )
    checks.append(
        ("executor.* nonzero only on fleet-governed",
         (values["executor.batch_s"] > 0) == (name == "fleet-governed"))
    )
    return [f"prediction {text}: {'holds' if ok else 'FAILS'}" for text, ok in checks]


# -- output -------------------------------------------------------------------


def report(result: dict, spec: dict, key: str) -> dict:
    """Print a run's human-readable lines and return its JSON record."""
    name, values = result["workload"], result["values"]
    unit_of = units(spec, key)
    missing = sorted(set(unit_of) - set(values))
    if key == "per_layer":
        wall = values["trace.wall_s"]
        print(f"{name}: self time by layer (share of traced wall {wall:.4f} s)")
        layers = sorted(
            list(LAYERS) + ["other"], key=lambda l: -values[f"{l}.self_s"]
        )
        for layer in layers:
            self_s = values[f"{layer}.self_s"]
            print(f"  {layer + '.self_s':24s} {self_s:10.4f} s  {self_s / wall:6.1%}")
        for note in result["notes"]:
            print(f"  {note}")
        for line in predictions(name, values):
            print(f"  {line}")
    for metric, unit in unit_of.items():
        if metric in values:
            print(f"{name:15s} {metric:26s} {values[metric]:>16.6f} {unit}")
    if key == "end_to_end":
        for metric, unit in HOST_UNITS.items():
            if metric in values:
                print(f"{name:15s} {metric:26s} {values[metric]:>16.6f} {unit}"
                      " (host time, not gated)")
    print(
        f"{name:15s} {'failed_frac':26s} {result['failed_frac']:>16.6f} "
        f"share ({result['failed']} of {result['attempted']} points; "
        f"digest {result['digest']})"
    )
    return {
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in unit_of.items()
            if metric in values
        },
    }


def child_record(
    name: str, seed: int, seconds: float, traced: int, size: str, echo: bool
) -> dict:
    """Run one workload in a fresh interpreter, as the benchmark's command
    line does, and return its JSON record; with ``echo``, print its
    other output lines."""
    lines = child(
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(traced), "--size", size, check=False,
    ).strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench: {name} printed no result")
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def steadiness(names, runs: int, seed: int, seconds: float, size: str, spec) -> None:
    """Run each workload ``runs`` times, each in a fresh process on its
    own seed, and print every end-to-end metric's median, quartiles and
    spread ((Q3 - Q1) / median) beside its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        samples: dict[str, list[float]] = {}
        failed = 0
        for i in range(runs):
            result = child_record(name, seed + i, seconds, 0, size, echo=False)
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                samples.setdefault(metric, []).append(value["value"])
        print(f"{name}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
              f"{failed} failed points")
        for metric, values in samples.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bound = bounds[metric]
            verdict = "steady" if spread < bound / 3 else "UNSTEADY"
            print(
                f"  {metric:14s} median {median:12.5f} q1 {q1:12.5f} "
                f"q3 {q3:12.5f} spread {spread:6.2%} bound {bound:.2f} {verdict}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for smoke tests")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times and report spreads")
    parser.add_argument("--save-split", metavar="PATH",
                        help="with --trace 1, write the per-layer values here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_source_tree()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_probe:
        print(setup_probe(names[0], args.seed, args.size))
        return 0
    if args.rss_probe:
        print(rss_probe(names[0], args.seed, args.size))
        return 0
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.steadiness:
        steadiness(names, args.steadiness, args.seed, seconds, args.size, spec)
        return 0

    if len(names) > 1:
        # One child per workload, so no workload's peak RSS or warm
        # caches carry over into the next.
        records = {
            name: child_record(
                name, args.seed, seconds, args.trace, args.size, echo=True
            )
            for name in names
        }
    elif args.trace:
        records = {
            names[0]: report(
                trace(names[0], args.seed, seconds, args.size), spec, "per_layer"
            )
        }
    else:
        records = {
            names[0]: report(
                measure(names[0], args.seed, seconds, args.size), spec, "end_to_end"
            )
        }
    if args.save_split:
        split = {
            name: {metric: v["value"] for metric, v in record["metrics"].items()}
            for name, record in records.items()
        }
        with open(args.save_split, "w") as fh:
            json.dump(split, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if len(records) == 1:
        (record,) = records.values()
    else:
        record = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in records.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(record, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
