"""Regression gate on the number of kernel events one SSD IO costs.

The SSD front end runs every IO as a callback state machine that keeps
each hop of the event sequence it models (see DESIGN.md section 17).
These counts pin that sequence: a change that adds a hop, or drops one
that orders same-instant ties, moves them.  A change that is meant to
remove a *dead* event (one nothing waits on) must update the counts
here and say which event went.

The workload is ``ssd2`` (32 KiB pages, so a 64 KiB IO spans 2 pages),
64 KiB at QD8 for 0.05 simulated seconds, seed 0.
"""

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.profile import RunProfiler


def _events_and_ios(pattern: IoPattern) -> tuple[int, int]:
    profiler = RunProfiler()
    config = ExperimentConfig(
        device="ssd2",
        job=JobSpec(pattern, block_size=64 * 1024, iodepth=8, runtime_s=0.05),
        seed=0,
    )
    result = run_experiment(config, profiler=profiler)
    return profiler.points[0].sim_events, len(result.job.records)


def test_randread_hops():
    # Per IO, 21 events:
    #   IO machine (7): start hop, core grant, command timeout, all-of
    #     hop, link grant, link timeout, completion timeout;
    #   2 page reads x 6: start hop, die grant, sense timeout, bus grant,
    #     transfer timeout, page done;
    #   fio worker (2): the IO's done event, host-overhead timeout.
    # 2217 * 21 = 46557, plus 52 outside the IOs: 33 power-wave ticks,
    # 8 worker starts, 8 all-of children of the job's master process,
    # 2 master hops and 1 maintenance tick.
    events, ios = _events_and_ios(IoPattern.RANDREAD)
    assert ios == 2217
    assert events == 46609


def test_randwrite_hops():
    # Per IO, 8 fixed events: start hop, core grant, command timeout,
    # link grant, link timeout, completion timeout, then the worker's
    # done event and host-overhead timeout.  2083 * 8 = 16664.
    # The rest (53228) is the write buffer and the flush: one
    # buffer-admission wakeup per parked write per buffer release (the
    # release wakes every waiter), and the two _program_unit processes
    # each write spawns (start hop, die/bus/governor grants, transfer
    # and program-phase timeouts, and their unwaited done events), plus
    # the same 52 background events as the read run.
    events, ios = _events_and_ios(IoPattern.RANDWRITE)
    assert ios == 2083
    assert events == 69892
