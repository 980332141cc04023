"""Batched read dispatch: the NAND timing model as a flat event sweep.

The general kernel walks every read through the SSD's callback state
machines (``_SsdIo`` and ``_PageRead`` in :mod:`repro.devices.ssd`),
``Event`` objects with callback lists, and ``Resource`` grant machinery
-- eight allocated events per IO plus six per page.  For a
read-only job on an operational SSD the service network is fixed (cores
-> dies -> channels -> host link -> completion) with deterministic
service times, so this module replays the identical queueing discipline
as a flat sweep: one heap of plain tuples, per-station FIFO deques, and
scalar timestamps.  No Event allocation, no callback dispatch.

The sweep is *hop-faithful*: every heap entry the event engine would
create on this path (start hop, resource grant, timeout) has a flat
counterpart scheduled at the same instant, and sequence numbers are
assigned at the same moments the engine assigns them.  That matters
because the engine breaks same-instant ties by its global ``(time,
seq)`` order -- when two sense-ends hit one channel bus at the identical
float timestamp, the grant goes to whichever page's sense *timeout was
scheduled first*.  Reproducing that discipline hop for hop makes the
sweep's records bit-identical to the exact kernel's, tie interleavings
included, which is what lets ``tests/equivalence/`` hold batch mode to
event-time bit identity rather than statistical bounds.

Power activity is collected as ``(time, +/-watts)`` edges during the
sweep and folded into the rail trace in one sorted pass afterwards; only
same-instant float summation order can differ from the engine there.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.iogen.stats import IoRecord

__all__ = ["run_batched_read_job"]

_PHANTOM_HASH = 2654435761
_PHANTOM_MOD = 2**32

# Flat mirrors of the event kernel's hops, one kind per heap entry the
# engine would create (heap entries sort by (time, seq); kind is payload).
_LOOP = 0  # worker resumes its submit loop
_IO_START = 1  # _SsdIo._start (start hop): request a core
_CORE_GRANT = 2  # _SsdIo._core_granted: cores.request() granted
_CORE_END = 3  # _SsdIo._command_done: command timeout; spawn page reads
_PAGE_START = 4  # _PageRead._start (start hop): request the die
_DIE_GRANT = 5  # _PageRead._die_granted: die._server.request() granted
_SENSE_END = 6  # _PageRead._sensed: sense timeout; request the channel bus
_CHAN_GRANT = 7  # _PageRead._bus_granted: channel._bus.request() granted
_XFER_END = 8  # _PageRead._transferred: release channel + die
_PAGE_DONE = 9  # _SsdIo._page_done: the _PageRead fires
_ALLOF = 10  # _SsdIo._request_link (all-of hop): request the host link
_LINK_GRANT = 11  # _SsdIo._link_granted: link._bus.request() granted
_LINK_END = 12  # _SsdIo._link_done: link transfer timeout
_COMPLETE = 13  # _SsdIo._complete: completion-time timeout
_IO_DONE = 14  # the _SsdIo (the IO's done event); worker appends its record


def run_batched_read_job(engine, device, job) -> int:
    """Run ``job`` (already validated as batch-eligible) to completion.

    Fills ``job.records``/timestamps exactly as :meth:`FioJob.start` +
    engine stepping would, advances ``engine`` to the job's end time,
    and credits ``engine.events_fast_forwarded``.  Returns the number of
    IOs dispatched.
    """
    spec = job.spec
    config = device.config
    geometry = config.geometry
    page_size = geometry.page_size
    t0 = engine._now
    job._started = True
    job._start_time = t0
    deadline = t0 + spec.runtime_s
    size_limit = spec.size_limit_bytes
    block_size = spec.block_size
    host_overhead = spec.host_overhead_s
    cmd_t = config.controller.command_time_s
    completion_t = config.controller.completion_time_s
    core_w = config.controller.core_active_power_w
    die_read_t = device.array.dies[0]._read_time
    die_read_w = device.array.dies[0]._read_draw
    chan_bw = config.channel_bandwidth
    chan_w = config.channel_transfer_power_w
    link = device.link
    link_w = link.transfer_power_w
    link_xfer_t = block_size / link.bandwidth
    phantom = config.phantom_reads
    total_pages = geometry.total_pages
    pages_per_die = geometry.pages_per_die
    dies_per_channel = geometry.dies_per_channel
    page_map = device.page_map
    next_offset = job._offsets.next_offset

    # Stations mirror Resource exactly: cores are a counting semaphore
    # with a FIFO waiter deque; dies, channels, and the link are
    # single-server FIFO (the die is held from sense start through
    # channel-transfer end, as in _PageRead).
    cores_cap = config.controller.cores
    cores_used = 0
    core_waiters: deque = deque()
    n_dies = geometry.total_dies
    die_busy = [False] * n_dies
    die_waiters = [deque() for _ in range(n_dies)]
    chan_busy = [False] * geometry.channels
    chan_waiters = [deque() for _ in range(geometry.channels)]
    link_busy = False
    link_waiters: deque = deque()
    die_counts = [0] * n_dies
    chan_bytes = [0] * geometry.channels

    # Power activity as (time, delta_watts) edges, folded into the rail
    # trace after the sweep in one sorted pass.
    edges: list[tuple[float, float]] = []
    edge = edges.append

    # IO state, indexed by a dense id: [t_sub, worker, pages_left, offset].
    ios: list[list] = []
    records = job.records
    last_exit = t0
    last_complete = t0
    dispatched = 0

    heap: list[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0
    for w in range(spec.iodepth):
        seq += 1
        push(heap, (t0, seq, _LOOP, w, 0, 0))

    while heap:
        t, _s, kind, a, b, c = pop(heap)
        if kind == _SENSE_END:
            # a = io_id, b = die index, c = (channel, nbytes): sense
            # finished; the die stays held while the page waits for and
            # uses the channel bus.
            die_counts[b] += 1
            edge((t, -die_read_w))
            channel, nbytes = c
            if chan_busy[channel]:
                chan_waiters[channel].append((a, b, nbytes))
            else:
                chan_busy[channel] = True
                seq += 1
                push(heap, (t, seq, _CHAN_GRANT, a, b, nbytes))
        elif kind == _CHAN_GRANT:
            edge((t, chan_w))
            seq += 1
            push(heap, (t + c / chan_bw, seq, _XFER_END, a, b, c))
        elif kind == _XFER_END:
            # a = io_id, b = die index, c = nbytes.  Creation order
            # mirrors _PageRead._transferred: channel release first,
            # then die release, then the page-done event.
            channel = b // dies_per_channel
            chan_bytes[channel] += c
            edge((t, -chan_w))
            waiters = chan_waiters[channel]
            if waiters:
                na, nb, nn = waiters.popleft()
                seq += 1
                push(heap, (t, seq, _CHAN_GRANT, na, nb, nn))
            else:
                chan_busy[channel] = False
            dwaiters = die_waiters[b]
            if dwaiters:
                na, nc = dwaiters.popleft()
                seq += 1
                push(heap, (t, seq, _DIE_GRANT, na, b, nc))
            else:
                die_busy[b] = False
            seq += 1
            push(heap, (t, seq, _PAGE_DONE, a, 0, 0))
        elif kind == _PAGE_START:
            # a = io_id, b = die index (-1: unmapped zero-fill, no NAND
            # touch), c = (channel, nbytes).
            if b < 0:
                seq += 1
                push(heap, (t, seq, _PAGE_DONE, a, 0, 0))
            elif die_busy[b]:
                die_waiters[b].append((a, c))
            else:
                die_busy[b] = True
                seq += 1
                push(heap, (t, seq, _DIE_GRANT, a, b, c))
        elif kind == _DIE_GRANT:
            edge((t, die_read_w))
            seq += 1
            push(heap, (t + die_read_t, seq, _SENSE_END, a, b, c))
        elif kind == _PAGE_DONE:
            io = ios[a]
            io[2] -= 1
            if io[2] == 0:
                seq += 1
                push(heap, (t, seq, _ALLOF, a, 0, 0))
        elif kind == _ALLOF:
            if link_busy:
                link_waiters.append(a)
            else:
                link_busy = True
                seq += 1
                push(heap, (t, seq, _LINK_GRANT, a, 0, 0))
        elif kind == _LINK_GRANT:
            edge((t, link_w))
            seq += 1
            push(heap, (t + link_xfer_t, seq, _LINK_END, a, 0, 0))
        elif kind == _LINK_END:
            link.bytes_transferred += block_size
            edge((t, -link_w))
            if link_waiters:
                seq += 1
                push(heap, (t, seq, _LINK_GRANT, link_waiters.popleft(), 0, 0))
            else:
                link_busy = False
            if completion_t > 0:
                seq += 1
                push(heap, (t + completion_t, seq, _COMPLETE, a, 0, 0))
            else:
                last_complete = t
                seq += 1
                push(heap, (t, seq, _IO_DONE, a, 0, 0))
        elif kind == _COMPLETE:
            last_complete = t
            seq += 1
            push(heap, (t, seq, _IO_DONE, a, 0, 0))
        elif kind == _IO_DONE:
            io = ios[a]
            records.append(IoRecord(io[0], t, block_size))
            dispatched += 1
            if host_overhead > 0:
                seq += 1
                push(heap, (t + host_overhead, seq, _LOOP, io[1], 0, 0))
            else:
                # Zero host overhead: the worker loops within the done
                # event's callback, no intervening hop.
                if t >= deadline or job._issued_bytes >= size_limit:
                    if t > last_exit:
                        last_exit = t
                else:
                    offset = next_offset()
                    job._issued_bytes += block_size
                    io_id = len(ios)
                    ios.append([t, io[1], 0, offset])
                    seq += 1
                    push(heap, (t, seq, _IO_START, io_id, 0, 0))
        elif kind == _LOOP:
            # a = worker index.  Mirrors FioJob._worker's stop check.
            if t >= deadline or job._issued_bytes >= size_limit:
                if t > last_exit:
                    last_exit = t
                continue
            offset = next_offset()
            job._issued_bytes += block_size
            io_id = len(ios)
            ios.append([t, a, 0, offset])
            seq += 1
            push(heap, (t, seq, _IO_START, io_id, 0, 0))
        elif kind == _IO_START:
            if cores_used < cores_cap:
                cores_used += 1
                seq += 1
                push(heap, (t, seq, _CORE_GRANT, a, 0, 0))
            else:
                core_waiters.append(a)
        elif kind == _CORE_GRANT:
            edge((t, core_w))
            seq += 1
            push(heap, (t + cmd_t, seq, _CORE_END, a, 0, 0))
        else:  # _CORE_END
            # _SsdIo._command_done releases the core (granting the next
            # waiter) *before* it spawns the page reads.
            edge((t, -core_w))
            if core_waiters:
                seq += 1
                push(heap, (t, seq, _CORE_GRANT, core_waiters.popleft(), 0, 0))
            else:
                cores_used -= 1
            io = ios[a]
            offset = io[3]
            end = offset + block_size
            first = offset // page_size
            last = (end - 1) // page_size
            pages = 0
            for lpn in range(first, last + 1):
                ppn = page_map.lookup(lpn)
                pages += 1
                seq += 1
                if ppn is None and not phantom:
                    push(heap, (t, seq, _PAGE_START, a, -1, 0))
                    continue
                if ppn is None:
                    ppn = (lpn * _PHANTOM_HASH) % _PHANTOM_MOD % total_pages
                page_start = lpn * page_size
                nbytes = min(end, page_start + page_size) - max(
                    offset, page_start
                )
                # ppa_from_index reduced to the two fields reads use.
                die_linear = ppn // pages_per_die
                channel = die_linear // dies_per_channel
                push(
                    heap,
                    (t, seq, _PAGE_START, a, die_linear, (channel, nbytes)),
                )
            io[2] = pages

    # -- fold the power edges into the rail trace -----------------------
    # Same-time edges collapse into one breakpoint; the net draw returns
    # to zero so the rail's component ledger needs no update.
    edges.sort()
    rail = device.rail
    trace = rail.trace
    total = rail._total
    set_point = trace.set
    i = 0
    n_edges = len(edges)
    while i < n_edges:
        t, dw = edges[i]
        i += 1
        while i < n_edges and edges[i][0] == t:
            dw += edges[i][1]
            i += 1
        if dw != 0.0:
            total += dw
            set_point(t, total)

    # -- per-die / per-channel / device accounting ----------------------
    for die, count in zip(device.array.dies, die_counts):
        die.reads += count
    for chan, nbytes in zip(device.array.channels, chan_bytes):
        chan.bytes_transferred += nbytes
    device.ios_completed += dispatched
    device.bytes_read += dispatched * block_size

    # -- job/engine finalization ----------------------------------------
    # seq counts the swept heap entries, one per engine hop on this path.
    engine._now = last_exit
    engine.events_fast_forwarded += seq
    job._end_time = last_exit
    device._last_activity = last_complete
    return dispatched
