#!/usr/bin/env python3
"""Canonical bit-exact flattening of experiment results.

The kernel-performance work (and any future hot-path change) is gated on
a hard correctness bar: the optimized simulator must produce *bit-identical*
``ExperimentResult`` values for every catalog device.  Raw ``pickle`` bytes
are the wrong comparison medium -- adding ``__slots__`` to a dataclass or
reordering its fields changes the pickle byte stream without changing a
single simulated value.  This module instead flattens a result to a
canonical JSON structure in which every float is rendered with
``float.hex()`` (a lossless, bit-exact encoding), so two results compare
equal iff every numeric value in them is bit-for-bit identical, regardless
of class layout.

Used by ``tests/kernel/test_golden_equivalence.py`` (fixtures live in
``tests/kernel/golden/``) and regenerable via::

    PYTHONPATH=src python tools/golden_result.py --write

Regenerating is only legitimate when simulated *behaviour* is meant to
change (a model fix, a new noise draw order); a perf-only PR must leave
these fixtures untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "kernel" / "golden"


def flatten(obj: object) -> object:
    """Flatten a result object tree to a canonical JSON-able structure.

    Floats become ``float.hex()`` strings (bit-exact, including inf/nan);
    dataclasses become ``[type name, [(field, value)...]]`` pairs; numpy
    arrays become lists of hex floats.  The encoding depends only on the
    *values* a simulation produced, never on class layout, ``__slots__``,
    dict ordering, or pickle protocol details.
    """
    import numpy as np

    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, flatten(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, flatten(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, np.ndarray):
        return ["ndarray", [flatten(v) for v in obj.tolist()]]
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([flatten(k), flatten(v)] for k, v in obj.items()), key=repr
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [flatten(item) for item in obj]]
    raise TypeError(
        f"golden flattening does not know how to encode {type(obj).__name__}"
    )


def golden_configs() -> dict:
    """The pinned per-device-class experiments the goldens cover.

    One governed write path and one read path per catalog device; the
    capped SSD additionally runs under a non-default power state so the
    governor admission loop is exercised.  Stop conditions are small
    enough that the whole golden suite replays in a few seconds.
    """
    from repro._units import MiB
    from repro.core.experiment import ExperimentConfig
    from repro.iogen.spec import IoPattern, JobSpec

    def job(pattern: IoPattern, iodepth: int) -> JobSpec:
        return JobSpec(
            pattern=pattern,
            block_size=64 * 1024,
            iodepth=iodepth,
            runtime_s=0.02,
            size_limit_bytes=8 * MiB,
        )

    configs = {}
    for device in ("ssd1", "ssd2", "ssd3", "hdd"):
        configs[f"{device}_randwrite"] = ExperimentConfig(
            device=device, job=job(IoPattern.RANDWRITE, 8), seed=7
        )
        configs[f"{device}_randread"] = ExperimentConfig(
            device=device, job=job(IoPattern.RANDREAD, 8), seed=7
        )
    # Governor admission under a real cap (ssd2 publishes NVMe states).
    configs["ssd2_randwrite_ps2"] = ExperimentConfig(
        device="ssd2", job=job(IoPattern.RANDWRITE, 16), power_state=2, seed=7
    )
    configs["ssd2_seqwrite"] = ExperimentConfig(
        device="ssd2", job=job(IoPattern.WRITE, 4), seed=7
    )
    # Online policy runtime: the feedback controller tracking a step
    # budget, so the decision trail (ticks, set-point changes, retained
    # samples) is pinned bit-for-bit alongside the physics.
    from repro.policy import BudgetSchedule, PolicySpec

    configs["ssd2_policy_feedback"] = ExperimentConfig(
        device="ssd2",
        job=job(IoPattern.RANDWRITE, 8),
        seed=7,
        policy=PolicySpec(
            kind="feedback",
            budget=BudgetSchedule.step(high_w=14.0, low_w=9.0, period_s=0.01),
            interval_s=1.5e-3,
            window_s=3e-3,
        ),
    )
    configs["ssd2_policy_ladder"] = ExperimentConfig(
        device="ssd2",
        job=job(IoPattern.RANDWRITE, 8),
        seed=7,
        policy=PolicySpec(
            kind="ladder",
            budget=BudgetSchedule.diurnal(high_w=13.0, low_w=8.0, period_s=0.02),
            interval_s=2e-3,
            window_s=4e-3,
        ),
    )
    # IO-path branches the grid above never reaches: the pre-IO fault
    # delay (latency spikes and retried IO errors), the device waking
    # out of an APST doze, and the host link waking out of ALPM slumber.
    from repro.devices.catalog import ssd_d7p5510, ssd_pm1743
    from repro.devices.link import LinkPowerMode
    from repro.faults.plan import FaultPlan, IoErrorSpec, LatencySpikeSpec

    io_faults = FaultPlan(
        io_errors=IoErrorSpec(probability=0.2, retry_cost_s=40e-6),
        latency_spikes=(
            LatencySpikeSpec(
                start_s=2e-3, duration_s=3e-3, extra_s=150e-6, repeat_every_s=8e-3
            ),
        ),
    )
    for pattern in (IoPattern.RANDREAD, IoPattern.RANDWRITE):
        configs[f"ssd2_{pattern.value}_faults"] = ExperimentConfig(
            device="ssd2", job=job(pattern, 8), faults=io_faults, seed=7
        )
    # Two workers with long host think time: APST dozes between IOs, one
    # IO pays the exit latency and the other waits on the ready gate.
    configs["pm1743_randread_apst"] = ExperimentConfig(
        device=dataclasses.replace(ssd_pm1743(), apst_idle_timeout_s=0.5e-3),
        job=JobSpec(
            pattern=IoPattern.RANDREAD,
            block_size=64 * 1024,
            iodepth=2,
            runtime_s=0.05,
            size_limit_bytes=8 * MiB,
            host_overhead_s=3e-3,
        ),
        seed=7,
    )
    configs["ssd3_randwrite_alpm"] = ExperimentConfig(
        device="ssd3",
        job=job(IoPattern.RANDWRITE, 8),
        alpm_mode=LinkPowerMode.SLUMBER,
        seed=7,
    )
    # A 1 MiB write buffer under a power cap: most writes park in the
    # buffer-admission wait loop behind the throttled flush.
    configs["ssd2_randwrite_smallbuf"] = ExperimentConfig(
        device=dataclasses.replace(ssd_d7p5510(), write_buffer_bytes=1 * MiB),
        job=job(IoPattern.RANDWRITE, 8),
        power_state=2,
        seed=7,
    )
    return configs


#: Traced twins of grid cases: the fixture pins a digest of the tracer's
#: event stream (the results themselves are pinned by the untraced case,
#: and tracing is passive).
TRACED_CASES = {
    "ssd2_randread_traced": "ssd2_randread",
    "ssd2_randwrite_smallbuf_traced": "ssd2_randwrite_smallbuf",
}


def run_traced(name: str):
    """Run the grid case behind traced golden ``name``; return the tracer."""
    from repro.core.experiment import run_experiment
    from repro.obs.events import Tracer

    tracer = Tracer()
    run_experiment(golden_configs()[TRACED_CASES[name]], tracer=tracer)
    return tracer


def trace_digest(tracer) -> object:
    """Event count, per-kind counts and a SHA-256 of the event stream."""
    import hashlib

    digest = hashlib.sha256()
    kinds: dict = {}
    for event in tracer:
        kinds[event.kind.value] = kinds.get(event.kind.value, 0) + 1
        record = [
            event.time.hex(),
            event.seq,
            event.kind.value,
            event.component,
            event.scope,
            flatten(event.fields),
        ]
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return {
        "events": len(tracer),
        "kinds": [[kind, count] for kind, count in sorted(kinds.items())],
        "sha256": digest.hexdigest(),
    }


def compute_fleet_golden() -> object:
    """Epoch digests of a tiny but complete :func:`run_fleet` day.

    The full :class:`~repro.fleet.cluster.FleetResult` carries rollup and
    validation payloads whose shapes are free to evolve; the *physics* of
    the run is the per-epoch budget/allocation/power/latency digest plus
    the actuator ranges, so exactly that is pinned.
    """
    from repro._units import MiB
    from repro.fleet import FleetSpec, run_fleet
    from repro.studies.common import StudyScale

    scale = StudyScale(
        ssd_runtime_s=0.02,
        ssd_bytes=12 * MiB,
        hdd_runtime_s=1.0,
        hdd_bytes=12 * MiB,
    )
    spec = FleetSpec.sized(
        3, mix=("ssd1", "ssd2", "ssd3"), epochs=2, tenants=8, skew=1.0, seed=5
    )
    result = run_fleet(spec, scale)
    return flatten(
        {
            "epochs": result.epochs,
            "floors_w": result.floors_w,
            "ceilings_w": result.ceilings_w,
        }
    )


def compute_golden(name: str) -> object:
    if name == "fleet_tiny":
        return compute_fleet_golden()
    if name in TRACED_CASES:
        return trace_digest(run_traced(name))
    from repro.core.experiment import run_experiment

    return flatten(run_experiment(golden_configs()[name]))


def golden_names() -> list:
    """Every golden fixture name, experiment grid plus composite runs."""
    return sorted(golden_configs()) + sorted(TRACED_CASES) + ["fleet_tiny"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="(re)generate the golden fixtures instead of verifying them",
    )
    args = parser.parse_args(argv)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in golden_names():
        path = GOLDEN_DIR / f"{name}.json"
        flat = compute_golden(name)
        if args.write:
            path.write_text(json.dumps(flat, indent=1) + "\n")
            print(f"wrote {path.relative_to(REPO_ROOT)}")
        else:
            if not path.exists():
                failures.append(f"{name}: missing fixture {path}")
                continue
            if json.loads(path.read_text()) != flat:
                failures.append(f"{name}: result diverged from golden fixture")
            else:
                print(f"ok {name}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
