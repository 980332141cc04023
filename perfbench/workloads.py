"""The benchmark's three workloads: inputs, the timed call, and digests.

Each workload is one fixed input run to completion (a batch job, no
arrival rate).  ``setup`` imports ``repro`` and builds the inputs from
the workload seed; ``execute`` makes the one timed call and returns its
raw result; ``outcome``, run after the clock stopped, condenses that
result into a digest that a speed-only change must leave bit-identical.

All three run the exact kernel: the fastpath is off (its default).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Optional

KiB = 1024
GiB = 1 << 30

#: The workload seed used when ``--seed`` is not given.
DEFAULT_SEED = 0

#: Digests of the full-size workloads at ``DEFAULT_SEED``.  A change
#: that only makes the simulator faster must reproduce them exactly.
PINNED_DIGESTS = {
    "read-steady": "5bcefab64e9746d94c4e5083058c1cb2",
    "write-gc": "7620aa8017d00ccb15e52e110cf66272",
    "fleet-governed": "43a9e3420c8a5f4bfba395bb7a035e28",
}

#: Pool width of ``fleet-governed`` (2 = the 2-CPU reference machine).
FLEET_WORKERS = 2

#: ``FleetSpec.seed`` of ``fleet-governed``, whatever the workload seed.
#: The spec seed places tenants on devices, which fixes each device's
#: block size, pattern and queue depth: across spec seeds one call
#: simulates 45k to 91k IOs, a spread that would swamp any speed change.
FLEET_SPEC_SEED = 0

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke-test size (same code paths, a fraction of the work).
SIZES = {
    "full": {
        "read_runtime_s": 0.5,
        "write_runtime_s": 0.6,
        "fleet_devices": 8,
        "fleet_epochs": 4,
    },
    "tiny": {
        "read_runtime_s": 0.01,
        "write_runtime_s": 0.02,
        "fleet_devices": 4,
        "fleet_epochs": 1,
    },
}


@dataclasses.dataclass
class Outcome:
    """What one timed call produced, condensed after the clock stopped.

    Attributes:
        digest: Hash of every point's simulated outputs.
        points: Simulation points the call ran.
        ios: Simulated IOs completed over all points.
        violating_points: Distinct subjects with a broken validation
            invariant (``fleet-governed``).
    """

    digest: str
    points: int
    ios: int
    violating_points: int = 0


def _hash(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def point_outputs(result, device) -> tuple:
    """Every simulated statistic of one experiment that the digest covers:
    IO count, throughput, measured and true mean power, latency
    percentiles, and the FTL's GC and wear counters."""
    lat = result.latency()
    gc = getattr(device, "gc", None)
    wear = getattr(device, "wear", None)
    return (
        len(result.job.records),
        result.throughput_bps,
        result.power.mean_w,
        result.true_mean_power_w,
        lat.mean,
        lat.p50,
        lat.p99,
        gc.blocks_erased if gc is not None else None,
        gc.pages_relocated if gc is not None else None,
        wear.host_bytes_written if wear is not None else None,
        wear.nand_bytes_written if wear is not None else None,
    )


class Workload:
    """One named workload at one input size and seed.

    ``n_workers`` overrides the pool width of a pooled workload (1 runs
    it in-process).
    """

    name = ""
    n_workers = 1

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        size: str = "full",
        n_workers: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.size = size
        self.params = SIZES[size]
        if n_workers is not None:
            self.n_workers = n_workers

    @property
    def pooled(self) -> bool:
        return self.n_workers > 1

    @property
    def expected_points(self) -> int:
        """Points one call runs (counted as failed if the call raises)."""
        return 1

    @property
    def pinned_digest(self) -> Optional[str]:
        """The pinned digest, where one exists for this seed and size."""
        if self.seed == DEFAULT_SEED and self.size == "full":
            return PINNED_DIGESTS[self.name]
        return None

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def execute(self) -> Any:
        """Make the one timed call and return its raw result."""
        raise NotImplementedError  # pragma: no cover - abstract

    def outcome(self, result: Any, probe) -> Outcome:
        """Condense a call's result, and the counters ``probe`` saw, into
        an :class:`Outcome`.  Not timed."""
        raise NotImplementedError  # pragma: no cover - abstract


class _SingleExperiment(Workload):
    """One in-process ``run_experiment`` on ``ssd2``, 64 KiB, QD8."""

    pattern = ""
    runtime_key = ""

    def device_config(self, presets) -> Any:
        return "ssd2"

    def setup(self) -> None:
        from repro.core.experiment import ExperimentConfig, run_experiment
        from repro.devices.catalog import DEVICE_PRESETS
        from repro.iogen.spec import IoPattern, JobSpec

        self._run = run_experiment
        self.config = ExperimentConfig(
            device=self.device_config(DEVICE_PRESETS),
            job=JobSpec(
                IoPattern(self.pattern),
                block_size=64 * KiB,
                iodepth=8,
                runtime_s=self.params[self.runtime_key],
                # The simulated runtime is the stop rule, not the size.
                size_limit_bytes=64 * GiB,
            ),
            seed=self.seed,
        )

    def execute(self) -> Any:
        return self._run(self.config)

    def outcome(self, result: Any, probe) -> Outcome:
        (device,) = probe.harvest()
        return Outcome(
            digest=_hash(point_outputs(result, device)),
            points=1,
            ios=len(result.job.records),
        )


class ReadSteady(_SingleExperiment):
    name = "read-steady"
    pattern = "randread"
    runtime_key = "read_runtime_s"


class WriteGc(_SingleExperiment):
    name = "write-gc"
    pattern = "randwrite"
    runtime_key = "write_runtime_s"

    def device_config(self, presets) -> Any:
        # 8 blocks per plane (~460 MiB logical) so random writes fill
        # the device and GC runs inside the measured window.
        base = presets["ssd2"]()
        return dataclasses.replace(
            base,
            geometry=dataclasses.replace(base.geometry, blocks_per_plane=8),
        )


class FleetGoverned(Workload):
    """``repro.studies.fleet_scale.run`` on the pinned spec seed
    (:data:`FLEET_SPEC_SEED`), so its input is the same on every
    workload seed and its digest is always the pinned one."""

    name = "fleet-governed"
    n_workers = FLEET_WORKERS

    def setup(self) -> None:
        from repro.studies import fleet_scale
        from repro.studies.common import QUICK

        self._run: Callable[..., Any] = fleet_scale.run
        self.kwargs = dict(
            scale=QUICK,
            seed=FLEET_SPEC_SEED,
            n_devices=self.params["fleet_devices"],
            epochs=self.params["fleet_epochs"],
        )

    @property
    def pinned_digest(self) -> Optional[str]:
        return PINNED_DIGESTS[self.name] if self.size == "full" else None

    @property
    def expected_points(self) -> int:
        # A baseline and a governed run per device and epoch.
        return 2 * self.params["fleet_devices"] * self.params["fleet_epochs"]

    def execute(self, ledger: Optional[str] = None) -> Any:
        return self._run(n_workers=self.n_workers, ledger=ledger, **self.kwargs)

    def outcome(self, result: Any, probe) -> Outcome:
        outcomes = probe.take_outcomes()
        probe.harvest()
        violations = result.validation.violations
        return Outcome(
            digest=result.digest(),
            points=len(outcomes),
            ios=sum(len(o.job.records) for o in outcomes),
            violating_points=len({v.subject for v in violations}),
        )


WORKLOADS = {cls.name: cls for cls in (ReadSteady, WriteGc, FleetGoverned)}
