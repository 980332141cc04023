"""Parallel experiment execution.

Every figure in the paper comes from a grid of independent experiments,
and each experiment is deterministic from its config alone — so fanning
points out across a process pool must (and does) reproduce the sequential
results bit for bit.  This module provides the execution substrate the
sweep layer, the figure drivers and the CLI share:

- :func:`run_configs` — run a batch of :class:`ExperimentConfig` across
  ``n_workers`` processes, preserving submission order in the returned
  list no matter which worker finishes first;
- :class:`PointFailure` — per-point error capture: one failing point
  reports its config and exception instead of killing the whole batch;
- :class:`ResultCache` — an optional on-disk cache keyed by a stable
  content hash of the config, so re-runs of overlapping grids skip
  already-computed points;
- :class:`RetryPolicy` — resilient execution: per-point wall-clock
  timeouts and bounded retries with exponential backoff and
  deterministic jitter;
- in-process execution when a tracer rides along, when the batch has a
  single pending point or ``n_workers == 1`` (and no resilient policy),
  or — with a :class:`RuntimeWarning` — when the platform cannot start
  the worker pool.

Pool note: every pooled batch runs on one owned worker pool — forked
processes, one command pipe each.  The parent can ``terminate()`` a
worker it owns at a deadline and replace it, which a stdlib executor
cannot do (its shutdown joins a hung worker).  Without a policy the
pool runs with the default :class:`RetryPolicy` (no deadline, no
retries): a worker that dies mid-point (segfault, OOM kill,
``os._exit``) becomes that point's ``WorkerCrashError``
:class:`PointFailure` while the rest of the batch completes.  A policy
only adds deadlines and retries to the same pool.  Retry scheduling
(backoff, jitter) is wall-clock only and never touches simulation
state, so resilient execution reproduces plain execution bit for bit
for every point that completes.

Telemetry note: when a
:class:`~repro.core.telemetry.TelemetryRecorder` rides along (sweep
telemetry, live progress, or a run ledger was requested), workers ship a
compact :class:`~repro.obs.profile.PointProfile` back over the pipe
next to each outcome, and the parent folds queue/dispatch timestamps
into per-point lifecycle spans.  The recorder is wall-clock only and
strictly passive: results are bit-identical with and without it (the
telemetry-overhead benchmark holds that line).  The same aux channel
lets a parent :class:`~repro.obs.profile.RunProfiler` see pool
execution: per-worker profiles merge back in submission order instead
of forcing the whole batch in-process.

Determinism note: parallel execution only matches sequential execution
because per-point seeds are *process-stable* (derived via
:func:`repro.core.sweep.stable_point_salt`, not the builtin ``hash()``,
which ``PYTHONHASHSEED`` randomizes per process).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import heapq
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.checkpoint import CheckpointJournal, PointState
from repro.core.options import UNSET, coerce_execution_options
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.obs.profile import RunProfiler

__all__ = [
    "CacheStats",
    "PointFailure",
    "PointTimeoutError",
    "ResultCache",
    "RetryPolicy",
    "SweepExecutionError",
    "WorkerCrashError",
    "backoff_delay",
    "config_content_hash",
    "resolve_workers",
    "run_configs",
]


# -- stable config identity -------------------------------------------------


def _canonical(obj: object) -> object:
    """A stable, composition-friendly encoding of config values.

    Dataclasses flatten to (type name, field items) pairs, enums to their
    value — so the encoding never depends on object identity, dict order,
    or the per-process string-hash randomization that makes ``hash()``
    unusable as a key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.value]
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([_canonical(k), _canonical(v)] for k, v in obj.items()),
                key=repr,
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(item) for item in obj]]
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    return repr(obj)


def config_content_hash(config: ExperimentConfig) -> str:
    """Hex digest identifying a config by content, stable across processes."""
    payload = repr(_canonical(config)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# -- retry policy -----------------------------------------------------------


class PointTimeoutError(RuntimeError):
    """A point exceeded its per-attempt wall-clock budget and was killed."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``) mid-point."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor survives slow, flaky, and crashing points.

    Attributes:
        timeout_s: Per-attempt wall-clock budget; a worker still running
            at its deadline is terminated and the attempt counts as a
            failure.  ``None`` disables timeouts.
        retries: Extra attempts after the first failure (so a point runs
            at most ``1 + retries`` times).
        backoff_base_s: Delay before retry 1; doubles per retry.
        backoff_cap_s: Upper bound on any single backoff delay.
        jitter: Fractional spread added to each delay, derived
            deterministically from the point's content hash and attempt
            number — re-running a sweep re-produces the same schedule,
            while distinct points still decorrelate.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def resilient(self) -> bool:
        """Whether this policy needs the resilient (kill-capable) pool."""
        return self.timeout_s is not None or self.retries > 0


def backoff_delay(key: str, attempt: int, policy: RetryPolicy) -> float:
    """Deterministic exponential-backoff delay before retry ``attempt``.

    Jitter comes from a keyed digest of ``(key, attempt)`` rather than a
    live RNG: the retry schedule is part of the run's reproducible
    behaviour, not a source of noise.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    base = min(policy.backoff_cap_s, policy.backoff_base_s * 2 ** (attempt - 1))
    digest = hashlib.blake2b(
        f"{key}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    frac = int.from_bytes(digest, "big") / 2**64
    return base * (1.0 + policy.jitter * frac)


# -- failure capture --------------------------------------------------------


@dataclass(frozen=True)
class PointFailure:
    """One experiment that raised, with enough context to reproduce it.

    Attributes:
        attempts: How many times the executor ran the point before
            giving up (1 unless a :class:`RetryPolicy` allowed retries).
    """

    config: ExperimentConfig
    error_type: str
    message: str
    traceback: str
    attempts: int = 1

    def describe(self) -> str:
        suffix = f" (after {self.attempts} attempts)" if self.attempts > 1 else ""
        return (
            f"{self.config.describe()}: {self.error_type}: {self.message}{suffix}"
        )


#: Failures rendered in a SweepExecutionError message before truncating.
MAX_RENDERED_FAILURES = 5


class SweepExecutionError(RuntimeError):
    """Raised when a sweep had failing points and the caller wanted none.

    The message renders at most :data:`MAX_RENDERED_FAILURES` failures
    (a 720-point sweep failing wholesale should not print 720
    tracebacks' worth of text); the full list stays on ``failures``.
    """

    def __init__(self, failures: Sequence[PointFailure]) -> None:
        self.failures = list(failures)
        shown = self.failures[:MAX_RENDERED_FAILURES]
        lines = [f"  {failure.describe()}" for failure in shown]
        remaining = len(self.failures) - len(shown)
        if remaining > 0:
            lines.append(f"  ...and {remaining} more")
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed:\n" + "\n".join(lines)
        )


# -- on-disk result cache ---------------------------------------------------


@dataclass
class CacheStats:
    """Observable behaviour of one :class:`ResultCache` over its lifetime.

    Attributes:
        hits: Lookups served from disk.
        misses: Lookups with no entry on disk (includes corrupt entries,
            which degrade to a recompute).
        corrupt: Entries that existed but could not be loaded -- truncated
            writes, foreign files, stale pickles from an incompatible
            version.  Always also counted as misses.
        puts: Results written.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0

    def snapshot(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
            "hit_rate": self.hits / total if total else 0.0,
        }


class ResultCache:
    """Pickled :class:`ExperimentResult` per config content hash.

    Writes are atomic (tmp file + rename), so concurrent workers or
    overlapping sweeps can share one cache directory; unreadable entries
    are treated as misses and recomputed, never raised.  Every lookup and
    store is counted in :attr:`stats` so sweeps can report cache
    effectiveness (surfaced via ``repro sweep --metrics``).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, config: ExperimentConfig) -> Path:
        return self.root / f"{config_content_hash(config)}.pkl"

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        path = self.path_for(config)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError):
            # A present-but-unreadable entry: degrade to a recompute.
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        if not isinstance(result, ExperimentResult):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        path = self.path_for(config)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh)
                fh.flush()
                # Entries must survive the very crashes --resume exists
                # for; without the fsync the rename can land while the
                # data blocks are still unwritten, leaving a truncated
                # "committed" entry after power loss.
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            # Never leave orphaned .tmp litter behind a failed or
            # interrupted write; the cache directory is shared.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats.puts += 1


# -- execution --------------------------------------------------------------


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None`` = all cores).

    Zero and negative counts are rejected rather than silently mapped:
    a scripted ``--workers $N`` with an unset ``N`` collapsing to "all
    cores" is the kind of surprise that takes a shared machine down.
    """
    if n_workers is None:
        return os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(
            f"n_workers must be a positive integer or None (= all cores), "
            f"got {n_workers}"
        )
    return n_workers


def _run_config(
    config: ExperimentConfig, tracer=None, profiler=None
) -> Union[ExperimentResult, PointFailure]:
    """Worker entry point: never raises, so one point cannot kill a batch."""
    try:
        if tracer is None and profiler is None:
            # Plain call when untraced: keeps the entry point compatible
            # with single-argument stand-ins for run_experiment.
            return run_experiment(config)
        return run_experiment(config, tracer=tracer, profiler=profiler)
    except Exception as exc:  # noqa: BLE001 - captured by design
        return PointFailure(
            config=config,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )


def _run_config_aux(config: ExperimentConfig):
    """Worker entry point that also returns the point's wall-clock profile.

    The aux channel exists for pool-side telemetry and profiler merging:
    the :class:`~repro.obs.profile.PointProfile` is four scalars and a
    label, cheap to pickle back over the pipe, and profiling is passive,
    so the outcome is bit-identical to :func:`_run_config`'s.
    """
    profiler = RunProfiler()
    outcome = _run_config(config, profiler=profiler)
    profile = profiler.points[-1] if profiler.points else None
    return outcome, profile


def _journal_final(
    journal: Optional[CheckpointJournal],
    key: str,
    outcome: Union[ExperimentResult, PointFailure],
    attempt: int,
) -> None:
    if journal is None:
        return
    if isinstance(outcome, PointFailure):
        journal.record(
            key, PointState.EXHAUSTED, attempt=attempt, detail=outcome.describe()
        )
    else:
        journal.record(key, PointState.DONE, attempt=attempt)


def _run_point_inprocess(
    config: ExperimentConfig,
    key: str,
    policy: Optional[RetryPolicy],
    journal: Optional[CheckpointJournal],
    cache: Optional["ResultCache"] = None,
    tracer=None,
    profiler=None,
) -> Union[ExperimentResult, PointFailure]:
    """In-process execution with the policy's retry loop.

    Timeouts are not enforceable here (there is no worker to kill);
    callers that need them route through the worker pool instead.
    The cache write happens *before* the DONE journal record so a crash
    between the two can never leave a "done" point without its result --
    resume trusts the journal's DONE to mean "persisted".
    """
    attempts_allowed = 1 + (policy.retries if policy is not None else 0)
    outcome: Union[ExperimentResult, PointFailure, None] = None
    for attempt in range(1, attempts_allowed + 1):
        if journal is not None:
            journal.record(key, PointState.IN_FLIGHT, attempt=attempt)
        outcome = _run_config(config, tracer=tracer, profiler=profiler)
        if isinstance(outcome, ExperimentResult):
            if cache is not None:
                cache.put(config, outcome)
            _journal_final(journal, key, outcome, attempt)
            return outcome
        outcome = dataclasses.replace(outcome, attempts=attempt)
        if attempt < attempts_allowed:
            if journal is not None:
                journal.record(
                    key,
                    PointState.FAILED,
                    attempt=attempt,
                    detail=outcome.describe(),
                )
            if policy is not None:
                time.sleep(backoff_delay(key, attempt, policy))
    assert outcome is not None
    _journal_final(journal, key, outcome, attempts_allowed)
    return outcome


# -- worker pool ------------------------------------------------------------


def _pipe_worker_main(conn, collect_aux: bool = False) -> None:
    """Worker loop: receive ``(index, config)`` tasks, send outcomes back.

    Replies are ``(index, outcome, aux)`` where ``aux`` is the point's
    :class:`~repro.obs.profile.PointProfile` when ``collect_aux`` is set
    (telemetry or a parent profiler asked for it) and ``None`` otherwise.
    ``None`` is the shutdown sentinel.  A vanished parent (EOF/OSError
    on the pipe) just ends the loop — the worker has nobody to report to.
    """
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, config = task
            if collect_aux:
                outcome, aux = _run_config_aux(config)
            else:
                outcome, aux = _run_config(config), None
            conn.send((index, outcome, aux))
    except (EOFError, OSError):
        return


@dataclass
class _Attempt:
    """One point making its way through the worker pool."""

    index: int
    config: ExperimentConfig
    key: str
    attempt: int = 0


class _WorkerSlot:
    """One owned worker process and its command pipe."""

    def __init__(self, ctx, collect_aux: bool = False, worker_id: int = 0) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_pipe_worker_main, args=(child_conn, collect_aux), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.worker_id = worker_id
        self.task: Optional[_Attempt] = None
        self.deadline: Optional[float] = None
        self.dispatched_at: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: _Attempt, timeout_s: Optional[float]) -> None:
        self.conn.send((task.index, task.config))
        self.task = task
        self.dispatched_at = time.monotonic()
        self.deadline = (
            self.dispatched_at + timeout_s if timeout_s is not None else None
        )

    def kill(self) -> None:
        with contextlib.suppress(OSError, ValueError):
            self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


def _run_pool(
    configs: List[ExperimentConfig],
    pending: List[int],
    key_for,
    workers: int,
    policy: RetryPolicy,
    journal: Optional[CheckpointJournal],
    cache: Optional[ResultCache],
    profiler,
    recorder,
) -> List[Union[ExperimentResult, PointFailure]]:
    """Run the pending points on an owned worker pool, in submission order.

    The loop keeps every worker busy while work remains, terminates
    workers that blow their per-attempt deadline, treats a dead pipe as
    a worker crash, and re-queues failed attempts (after their backoff
    delay) until the retry budget is spent.  Worker loss of any kind is
    survived by spawning a replacement.

    If the platform cannot start the pool (no fork start method, or the
    first worker fails to start), the batch runs in-process instead,
    with a :class:`RuntimeWarning`; nothing has been dispatched by then,
    so no point runs twice.

    With a ``profiler`` or ``recorder``, workers return a per-point
    :class:`~repro.obs.profile.PointProfile` next to each outcome; the
    profiles of final attempts merge into ``profiler`` in submission
    order.  ``recorder`` (a
    :class:`~repro.core.telemetry.TelemetryRecorder`) is fed dispatch,
    retry, worker-lifecycle and terminal events; both are wall-clock
    only and never touch the outcomes.
    """
    collect_aux = profiler is not None or recorder is not None
    tasks = [_Attempt(index=i, config=configs[i], key=key_for(i)) for i in pending]
    results: Dict[int, Union[ExperimentResult, PointFailure]] = {}
    profiles: Dict[int, object] = {}
    queue = deque(tasks)
    delayed: List[tuple[float, int, _Attempt]] = []  # (ready_at, tiebreak, task)
    tiebreak = 0
    next_worker_id = 0

    def new_slot() -> _WorkerSlot:
        nonlocal next_worker_id
        slot = _WorkerSlot(ctx, collect_aux, worker_id=next_worker_id)
        next_worker_id += 1
        if recorder is not None:
            recorder.worker_spawned(slot.worker_id)
        return slot

    try:
        ctx = multiprocessing.get_context("fork")
        pool: List[_WorkerSlot] = [new_slot()]
    except (ValueError, OSError) as exc:  # OSError covers PermissionError
        warnings.warn(
            f"process pool unavailable ({exc!r}); "
            "falling back to in-process execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return _run_pending_inprocess(
            configs, pending, key_for, policy, journal, cache,
            None, profiler, recorder,
        )

    def give_up(task: _Attempt, error: str, message: str) -> None:
        failure = PointFailure(
            config=task.config,
            error_type=error,
            message=message,
            traceback="",
            attempts=task.attempt,
        )
        results[task.index] = failure
        _journal_final(journal, task.key, failure, task.attempt)

    def retry_or_give_up(
        task: _Attempt,
        error: str,
        message: str,
        final: Optional[PointFailure] = None,
    ) -> None:
        nonlocal tiebreak
        if journal is not None:
            journal.record(
                task.key,
                PointState.FAILED,
                attempt=task.attempt,
                detail=f"{error}: {message}",
            )
        if task.attempt <= policy.retries:
            ready_at = time.monotonic() + backoff_delay(
                task.key, task.attempt, policy
            )
            tiebreak += 1
            heapq.heappush(delayed, (ready_at, tiebreak, task))
        elif final is not None:
            # Keep the captured failure (it carries the real traceback).
            results[task.index] = final
            _journal_final(journal, task.key, final, task.attempt)
        else:
            give_up(task, error, message)

    def finish_if_final(task: _Attempt, aux=None) -> None:
        """Telemetry/aux bookkeeping once a point reached a terminal state."""
        if task.index not in results:
            return
        if aux is not None:
            profiles[task.index] = aux
        if recorder is not None:
            recorder.point_finished(task.index, results[task.index], aux)

    def credit_attempt(slot: _WorkerSlot, now: float) -> None:
        if recorder is not None and slot.dispatched_at is not None:
            recorder.worker_attempt(slot.worker_id, now - slot.dispatched_at)

    def replace_worker(slot: _WorkerSlot) -> None:
        slot.kill()
        if recorder is not None:
            recorder.worker_retired(slot.worker_id)
        pool.remove(slot)
        outstanding = len(queue) + len(delayed) + sum(s.busy for s in pool)
        if outstanding > len(pool):
            pool.append(new_slot())

    try:
        pool.extend(new_slot() for _ in range(min(workers, len(tasks)) - 1))
        while queue or delayed or any(slot.busy for slot in pool):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            # Self-heal: never spin with queued work and no worker to take
            # it (every slot may have been killed since the last pass).
            if queue and all(slot.busy for slot in pool) and len(pool) < workers:
                pool.append(new_slot())
            for slot in pool:
                if slot.busy or not queue:
                    continue
                task = queue.popleft()
                task.attempt += 1
                if journal is not None:
                    journal.record(
                        task.key, PointState.IN_FLIGHT, attempt=task.attempt
                    )
                try:
                    slot.dispatch(task, policy.timeout_s)
                    if recorder is not None:
                        recorder.point_dispatched(task.index, worker=slot.worker_id)
                except (BrokenPipeError, OSError):
                    # The worker died between tasks; the attempt never
                    # started, so re-queue it uncharged.
                    task.attempt -= 1
                    queue.appendleft(task)
                    replace_worker(slot)
                    break
            busy = [slot for slot in pool if slot.busy]
            if not busy:
                if delayed and not queue:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wait_bounds = [
                slot.deadline for slot in busy if slot.deadline is not None
            ]
            if delayed:
                wait_bounds.append(delayed[0][0])
            timeout = (
                max(0.0, min(wait_bounds) - time.monotonic())
                if wait_bounds
                else None
            )
            ready = _connection_wait([slot.conn for slot in busy], timeout)
            now = time.monotonic()
            for slot in busy:
                task = slot.task
                if task is None:
                    continue
                if slot.conn in ready:
                    try:
                        index, outcome, aux = slot.conn.recv()
                    except (EOFError, OSError):
                        # Hard crash mid-point (segfault, OOM kill,
                        # os._exit): the pipe breaks before a result.
                        # Queue the retry *before* replacing the worker so
                        # the replacement head-count sees the pending work.
                        slot.task = None
                        credit_attempt(slot, now)
                        retry_or_give_up(
                            task,
                            WorkerCrashError.__name__,
                            "worker process died mid-experiment",
                        )
                        finish_if_final(task)
                        replace_worker(slot)
                        continue
                    slot.task = None
                    slot.deadline = None
                    credit_attempt(slot, now)
                    if isinstance(outcome, PointFailure):
                        # An in-experiment exception spends a retry like a
                        # timeout or crash does (the docstring's "alike"):
                        # usually it replays deterministically to the same
                        # raise, but env-dependent failures can recover.
                        outcome = dataclasses.replace(
                            outcome, attempts=task.attempt
                        )
                        retry_or_give_up(
                            task,
                            outcome.error_type,
                            outcome.message,
                            final=outcome,
                        )
                        finish_if_final(task, aux)
                        continue
                    if cache is not None:
                        # Persist before journaling DONE: resume trusts
                        # DONE to mean the result is on disk.
                        cache.put(task.config, outcome)
                    results[index] = outcome
                    _journal_final(journal, task.key, outcome, task.attempt)
                    finish_if_final(task, aux)
                elif slot.deadline is not None and now >= slot.deadline:
                    slot.task = None
                    credit_attempt(slot, now)
                    retry_or_give_up(
                        task,
                        PointTimeoutError.__name__,
                        f"exceeded {policy.timeout_s:g}s wall-clock budget",
                    )
                    finish_if_final(task)
                    replace_worker(slot)
    finally:
        for slot in pool:
            if slot.busy:
                slot.kill()
            else:
                with contextlib.suppress(OSError, ValueError):
                    slot.conn.send(None)
                slot.process.join(timeout=1.0)
                slot.kill()
            if recorder is not None:
                recorder.worker_retired(slot.worker_id)
    if profiler is not None:
        _merge_profiles(profiler, (profiles.get(i) for i in pending))
    return [results[i] for i in pending]


def run_configs(
    configs: Sequence[ExperimentConfig],
    options=UNSET,
    *legacy_args,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CheckpointJournal] = None,
    recorder=None,
    **legacy_kwargs,
) -> List[Union[ExperimentResult, PointFailure]]:
    """Run experiments, optionally across processes, preserving order.

    Args:
        configs: Experiments to run; the returned list is index-aligned
            with this sequence regardless of worker completion order.
        options: An :class:`~repro.core.options.ExecutionOptions`.  Its
            ``n_workers``/``cache_dir``/``tracer``/``profiler`` fields map
            onto the execution knobs documented there; ``timeout_s`` and
            ``retries`` build a :class:`RetryPolicy` unless an explicit
            ``policy`` is given, and ``checkpoint``/``resume`` open a
            journal for the duration of the call unless an explicit
            ``journal`` is given.  The legacy individual-argument form
            (``n_workers``, ``cache_dir``, ``tracer``, ``profiler``)
            still works but emits a :class:`DeprecationWarning`.
        policy: Optional :class:`RetryPolicy`.  Every pooled batch runs
            on one owned worker pool; without a policy it has no
            deadline and no retries, and a worker crash fails only its
            own point.  A policy adds deadlines (hung workers are
            terminated) and retries (failed attempts re-dispatch after a
            deterministic backoff) to that pool; a resilient policy uses
            the pool even for one point or ``n_workers == 1``.
        journal: Optional open :class:`CheckpointJournal` recording each
            point's lifecycle (keyed by :func:`config_content_hash`), so
            an interrupted sweep can be resumed and audited.
        recorder: Optional
            :class:`~repro.core.telemetry.TelemetryRecorder` fed the
            executor's lifecycle events (one recorder per batch: spans
            are keyed by submission index).  When ``options`` requests
            telemetry, progress, or a ledger and no recorder is passed,
            one is created for the duration of the call.

    Returns:
        One :class:`ExperimentResult` or :class:`PointFailure` per config.
    """
    opts = coerce_execution_options("run_configs", options, legacy_args, legacy_kwargs)
    if policy is None and (opts.timeout_s is not None or opts.retries):
        policy = RetryPolicy(timeout_s=opts.timeout_s, retries=opts.retries)
    own_journal = journal is None and opts.checkpoint is not None
    if own_journal:
        journal = CheckpointJournal(opts.checkpoint)
        journal.open(fresh=not opts.resume)
    if recorder is None and (
        opts.telemetry or opts.progress is not None or opts.ledger is not None
    ):
        # Imported lazily: the default (telemetry-off) path never pays
        # for the telemetry module.
        from repro.core.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
    if recorder is not None:
        if recorder.total is None:
            recorder.total = len(configs)
        if opts.progress is not None and recorder.on_progress is None:
            recorder.on_progress = opts.progress
    if isinstance(opts.cache_dir, ResultCache):
        cache: Optional[ResultCache] = opts.cache_dir
    else:
        cache = ResultCache(opts.cache_dir) if opts.cache_dir is not None else None
    configs = list(configs)
    try:
        outcomes = _execute_configs(
            configs,
            n_workers=opts.n_workers,
            cache=cache,
            tracer=opts.tracer,
            profiler=opts.profiler,
            policy=policy,
            journal=journal,
            recorder=recorder,
        )
    finally:
        if own_journal:
            journal.close()
    if opts.ledger is not None:
        from repro.core.ledger import RunLedger, point_record

        ledger = (
            opts.ledger
            if isinstance(opts.ledger, RunLedger)
            else RunLedger(opts.ledger)
        )
        for index, (config, outcome) in enumerate(zip(configs, outcomes)):
            ledger.append(
                point_record(config, outcome, span=recorder.span(index))
            )
    return outcomes


def _merge_profiles(profiler, aux_profiles) -> None:
    """Fold worker-side point profiles into a parent profiler.

    Called with profiles in submission order so a pooled run reports the
    same profiler contents (up to timing noise) as an in-process run.
    """
    for aux in aux_profiles:
        if aux is not None:
            profiler.record(aux.label, aux.wall_s, aux.sim_events, aux.sim_time_s)


def _run_pending_inprocess(
    configs: List[ExperimentConfig],
    pending: List[int],
    key_for,
    policy: Optional[RetryPolicy],
    journal: Optional[CheckpointJournal],
    cache: Optional[ResultCache],
    tracer,
    profiler,
    recorder,
) -> List[Union[ExperimentResult, PointFailure]]:
    """In-process execution of the pending points, with telemetry hooks."""
    fresh: List[Union[ExperimentResult, PointFailure]] = []
    for i in pending:
        if recorder is not None:
            recorder.point_dispatched(i)
        scratch = None
        use_profiler = profiler
        if recorder is not None and profiler is None:
            # Telemetry wants per-point run cost even when the caller
            # did not ask for a profiler; profiling is passive, so the
            # scratch profiler cannot change the outcome.
            scratch = RunProfiler()
            use_profiler = scratch
        before = len(profiler.points) if profiler is not None else 0
        outcome = _run_point_inprocess(
            configs[i],
            key_for(i),
            policy,
            journal,
            cache,
            tracer=tracer,
            profiler=use_profiler,
        )
        if recorder is not None:
            if scratch is not None:
                profile = scratch.points[-1] if scratch.points else None
            else:
                profile = (
                    profiler.points[-1]
                    if len(profiler.points) > before
                    else None
                )
            recorder.point_finished(i, outcome, profile)
        fresh.append(outcome)
    return fresh


def _execute_configs(
    configs: List[ExperimentConfig],
    *,
    n_workers: Optional[int],
    cache: Optional[ResultCache],
    tracer,
    profiler,
    policy: Optional[RetryPolicy],
    journal: Optional[CheckpointJournal],
    recorder=None,
) -> List[Union[ExperimentResult, PointFailure]]:
    """The execution engine behind :func:`run_configs` (resolved knobs).

    ``cache`` reads/writes results keyed by :func:`config_content_hash`
    (failures are never cached).  Two execution branches: a tracer
    forces in-process execution regardless of ``n_workers`` (events
    cannot cross a process boundary in order); otherwise more than one
    pending point with ``n_workers > 1``, or a resilient policy, runs on
    the owned worker pool (:func:`_run_pool`), and anything else runs
    in-process.  A profiler does not force in-process execution: pool
    workers ship their per-point profiles back and the parent merges
    them in submission order.  Results are identical on every path
    (that equivalence is under test).
    """
    workers = resolve_workers(n_workers)

    keys: Dict[int, str] = {}

    def key_for(index: int) -> str:
        if index not in keys:
            keys[index] = config_content_hash(configs[index])
        return keys[index]

    outcomes: List[Union[ExperimentResult, PointFailure, None]] = [None] * len(configs)
    pending: List[int] = []
    for index, config in enumerate(configs):
        cached = cache.get(config) if cache is not None else None
        if cached is not None:
            outcomes[index] = cached
            if recorder is not None:
                recorder.point_cached(index, key_for(index), config.describe())
            if journal is not None:
                journal.record(key_for(index), PointState.DONE, detail="cached")
        else:
            if recorder is not None:
                recorder.point_enqueued(index, key_for(index), config.describe())
            pending.append(index)

    if pending:
        resilient = policy is not None and policy.resilient
        if tracer is None and (resilient or (workers > 1 and len(pending) > 1)):
            fresh = _run_pool(
                configs, pending, key_for, workers,
                policy if policy is not None else RetryPolicy(),
                journal, cache, profiler, recorder,
            )
        else:
            if tracer is not None and resilient and policy.timeout_s is not None:
                warnings.warn(
                    "tracing forces in-process execution; per-point "
                    "timeouts cannot be enforced without a worker "
                    "process to kill",
                    RuntimeWarning,
                    stacklevel=2,
                )
            fresh = _run_pending_inprocess(
                configs, pending, key_for, policy, journal, cache,
                tracer, profiler, recorder,
            )
        for index, outcome in zip(pending, fresh):
            outcomes[index] = outcome
    return outcomes  # type: ignore[return-value]
