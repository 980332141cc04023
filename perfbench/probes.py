"""Measure ``repro``'s layers from outside, without changing its code.

Three instruments, each used in the way the layer allows:

- :class:`Probe` wraps public functions called at most once per point
  or per batch (``build_device``, ``FioJob.result``,
  ``PowerMeter.measure`` with ``summarize_samples``, ``run_configs``,
  ``ClusterGovernor.allocate``, ``check_result``).  With ``spans`` off
  it only keeps references to each point's engine and device so the
  caller can read their counters; with ``spans`` on it also times each
  call.
- :meth:`Probe.harvest` reads public counters after a point:
  ``Engine.events_processed``, NAND die ``op_counts``, ``device.gc``,
  ``device.wear`` and ``device.rail.trace``.
- :func:`layer_self_times` runs a call under ``cProfile`` and assigns
  each function's self time to the ``repro`` subpackage that holds it.
  Coroutine layers interleave inside the kernel's run loop, so only a
  profiler can separate them.
"""

from __future__ import annotations

import cProfile
import os
import pickle
import pstats
import time
from collections import Counter
from typing import Callable, Optional

#: Every ``repro`` subpackage, plus ``top`` for the package's own
#: top-level modules and any subpackage not named here.  Self time
#: outside ``repro`` is ``other``.
LAYERS = (
    "sim",
    "devices",
    "nand",
    "ftl",
    "power",
    "iogen",
    "hdd",
    "core",
    "policy",
    "fleet",
    "validate",
    "obs",
    "faults",
    "sata",
    "nvme",
    "studies",
    "top",
)


class Probe:
    """Wrappers around ``repro``'s per-point and per-batch calls.

    Use as a context manager: the wrappers are installed on entry and
    the originals restored on exit.
    """

    def __init__(self, spans: bool = False) -> None:
        self.spans = spans
        self.span_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.queue_waits: list[float] = []
        self._live: list = []
        self._outcomes: list = []
        self._pid = os.getpid()
        self._patches: list = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Probe":
        import repro.core.experiment as experiment
        import repro.fleet.cluster as cluster
        from repro.fleet.governor import ClusterGovernor
        from repro.iogen.engine import FioJob
        from repro.power.meter import PowerMeter

        self._patch(experiment, "build_device", self._build_device)
        self._patch(cluster, "run_configs", self._run_configs)
        if self.spans:
            self._patch(FioJob, "result", self._timed("iogen.result_s"))
            self._patch(PowerMeter, "measure", self._timed("power.meter_s"))
            self._patch(
                experiment, "summarize_samples", self._timed("power.meter_s")
            )
            self._patch(
                ClusterGovernor, "allocate", self._timed("fleet.allocate_s")
            )
            self._patch(cluster, "check_result", self._timed("validate.check_s"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, make: Callable) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def _timed(self, metric: str) -> Callable:
        def make(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.span_s[metric] += time.perf_counter() - start

            return timed

        return make

    def _build_device(self, original):
        def build_device(engine, *args, **kwargs):
            start = time.perf_counter()
            device = original(engine, *args, **kwargs)
            if self.spans:
                self.span_s["core.build_device_s"] += time.perf_counter() - start
            if os.getpid() == self._pid:
                # Pool workers forked from here inherit the wrapper;
                # what they build is never harvested, so keep nothing.
                self._live.append((engine, device))
            return device

        return build_device

    def _run_configs(self, original):
        def run_configs(configs, *args, **kwargs):
            options = args[0] if args else kwargs.get("options")
            recorder = None
            if self.spans and getattr(options, "ledger", None) is not None:
                from repro.core.telemetry import TelemetryRecorder

                # A ledger makes run_configs create a recorder anyway;
                # passing our own one lets us read its queue waits.
                recorder = kwargs["recorder"] = TelemetryRecorder()
            start = time.perf_counter()
            outcomes = original(configs, *args, **kwargs)
            if self.spans:
                self.span_s["executor.batch_s"] += time.perf_counter() - start
                self.counts["executor.batches"] += 1
                self.counts["executor.result_bytes"] += len(
                    pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL)
                )
                if recorder is not None:
                    self.queue_waits.extend(
                        recorder.span(i).queue_wait_s for i in range(len(configs))
                    )
            self._outcomes.extend(outcomes)
            self.harvest()
            return outcomes

        return run_configs

    # -- counters --------------------------------------------------------

    def take_outcomes(self) -> list:
        """The outcomes ``run_configs`` returned since the last call."""
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def harvest(self) -> list:
        """Fold the counters of every device built since the last call
        into :attr:`counts` and return those devices.

        Devices built inside pool workers are never seen here; their
        counters come from an in-process run of the same spec.
        """
        live, self._live = self._live, []
        counts = self.counts
        for engine, device in live:
            counts["core.points"] += 1
            counts["sim.events"] += engine.events_processed
            counts["power.trace_breakpoints"] += len(device.rail.trace)
            array = getattr(device, "array", None)
            if array is not None:
                ops = {kind.value: n for kind, n in array.op_counts().items()}
                counts["nand.reads"] += ops.get("read", 0)
                counts["nand.programs"] += ops.get("program", 0)
                counts["nand.erases"] += ops.get("erase", 0)
            gc = getattr(device, "gc", None)
            if gc is not None:
                counts["ftl.gc_blocks_erased"] += gc.blocks_erased
                counts["ftl.gc_pages_relocated"] += gc.pages_relocated
            wear = getattr(device, "wear", None)
            if wear is not None:
                counts["ftl.host_bytes"] += wear.host_bytes_written
                counts["ftl.nand_bytes"] += wear.nand_bytes_written
        return [device for _, device in live]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The ``repro`` layer a source file belongs to, or ``None``."""
    if not filename.startswith(package_dir + os.sep):
        return None
    head = filename[len(package_dir) + 1 :].split(os.sep, 1)
    return head[0] if len(head) == 2 and head[0] in LAYERS else "top"


def layer_self_times(call: Callable[[], object]) -> tuple[object, float, dict, dict]:
    """Run ``call`` under ``cProfile``.

    Returns ``(value, wall_s, self_s, calls)``: the call's return value,
    its wall time under the profiler, each layer's self time in seconds
    (``other`` takes the rest of ``wall_s``, so the values sum to it),
    and profiler call counts of selected per-event functions.
    """
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = call()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = Counter()
    for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(
        profiler
    ).stats.items():
        layer = layer_of(os.path.abspath(filename), package_dir)
        if layer is not None:
            self_s[layer] += tottime
            if layer == "power" and func == "add_draw":
                calls["power.add_draw_calls"] += ncalls
    self_s["other"] = wall_s - sum(self_s.values())
    return value, wall_s, self_s, dict(calls)
