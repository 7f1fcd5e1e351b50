"""Slot-level Monte Carlo engine for the three relaying policies.

Adaptive-rate runs move fractional bits (capacity-achieving transmission,
buffer measured in bits per symbol); fixed-rate runs move whole packets, with
errored packets forwarded rather than dropped. A packet's decode error does
not change the buffer, so a run counts it by its expected value: the
per-symbol gaussian tail error probability min(1, phi/2 erfc(sqrt(eta g / 2)))
at the packet's SNR g, which has the same mean as an error indicator and no
larger variance. Standard errors come from batch means (100 batches by
default), which also absorbs the buffer-state autocorrelation of fixed-rate
runs.

A run's buffer is computed in chunks of slots, all in numpy, by ``_chunks``.
An infinite buffer whose empty-buffer threshold equals the interior one
selects alike in every slot, so its level is the one-sided reflected walk,
Lindley's recursion B_n = max(B_{n-1} + x_n, 0), by cumulative sums and
running minima (overflow curves, and cabr runs of either rate mode with an
infinite buffer and rho_c == rho). Every other buffer has boundaries, and
``_replay_levels`` replays it in blocks: it guesses each block's start,
steps all blocks at once, one clipped add per slot over a row of every
block's slot (a finite packet buffer's count steps through a table of count
maps), and repairs the starts that disagree with the end of the block
before. Bit and finite packet buffers are computed in chunks of ``_CHUNK``
slots, and infinite packet buffers in quarter chunks; the totals read
quarter-chunk records, except on the exact bit walk, whose records are whole
chunks.

Given the counts, every per-slot event of a fixed-rate run is elementwise; a
FIFO departure carries the oldest queued arrival, a LIFO departure at count c
the latest arrival that raised the count to c. Fixed-rate totals equal the
slot loop's exactly, delay and occupancy sums included (every per-slot term is
an integer), except the error sums, float sums that differ only in the order
of addition. Adaptive cabr runs round each capacity log2(1 + g), and the
buffer's capacity and start occupancy (SchemeConfig bounds them by 2**32
bits), to whole multiples of ``_GRID`` = 2**-20 bit, whose sums below 2**33
bits are exact: every level and adaptive total equals the slot loop's,
whatever the chunk, block or record length. tests/test_sim.py keeps the slot
loops as oracles and checks every path against them on the same streams.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import erfc

from .analytic import HopPair, ModulationParams, SelectionThresholds
from .channel import sample_snr
from .queueing import DelayDecomposition

__all__ = [
    "BufferState",
    "SchemeConfig",
    "SimOutcome",
    "run",
    "overflow_probability",
]

_INV_LN2 = 1.0 / math.log(2.0)
_N_BATCHES = 100
_CHUNK = 1 << 16  # slots per chunk of bit and finite packet buffers; infinite ones take a quarter
_BLOCK = 32  # slots per block of the level replay
_GRID = 2.0**-20  # bits: adaptive cabr capacities, levels and totals are whole multiples of it


@dataclass
class BufferState:
    """Relay buffer: drain order, capacity, and starting occupancy.

    The unit follows the run's rate mode: fractional bits per symbol for
    adaptive rate, whole packets for fixed rate (SchemeConfig checks the
    counts). Capacity may be infinite.
    """

    discipline: str = "fifo"
    capacity: float = math.inf
    occupancy: float = 0.0

    def __post_init__(self) -> None:
        if self.discipline not in ("fifo", "lifo"):
            raise ValueError("discipline must be 'fifo' or 'lifo'")
        if not (self.capacity > 0.0):
            raise ValueError("capacity must be positive")
        if not (0.0 <= self.occupancy <= self.capacity):
            raise ValueError("occupancy must lie in [0, capacity]")


@dataclass
class SchemeConfig:
    """One simulation: policy, rate mode, buffer template, length and seed."""

    scheme: str
    rate_mode: str
    slots: int
    seed: int
    thresholds: Optional[SelectionThresholds] = None
    modulation: Optional[ModulationParams] = None
    buffer: BufferState = field(default_factory=BufferState)

    def __post_init__(self) -> None:
        if self.scheme not in ("cabr", "cnbr", "cbr"):
            raise ValueError("scheme must be one of cabr, cnbr, cbr")
        if self.rate_mode not in ("adaptive", "fixed"):
            raise ValueError("rate_mode must be 'adaptive' or 'fixed'")
        if self.slots < 1:
            raise ValueError("slots must be positive")
        if self.scheme == "cabr" and self.thresholds is None:
            raise ValueError("cabr requires thresholds")
        if self.rate_mode == "fixed" and self.modulation is None:
            raise ValueError("fixed rate_mode requires modulation")
        cap, occ = self.buffer.capacity, self.buffer.occupancy
        if self.rate_mode == "fixed":
            if not math.isinf(cap) and cap != int(cap):
                raise ValueError("buffer: packet-mode capacity must be a whole count")
            if occ != int(occ):
                raise ValueError("buffer: packet-mode occupancy must be a whole count")
        elif cap <= _GRID / 2:
            raise ValueError("buffer: bit capacity rounds to 0 on the 2**-20-bit grid")
        elif occ > 2.0**32 or 2.0**32 < cap < math.inf:
            raise ValueError("buffer: bit capacity and occupancy must not exceed 2**32")


@dataclass(frozen=True)
class SimOutcome:
    """Measured quantities of one run; inapplicable fields are nan.

    ci_halfwidths holds one standard error per metric key; batch means make
    these valid in the presence of buffer-state correlation.
    """

    avg_rate: float
    lsp_empirical: tuple
    ser_per_hop: tuple
    delay: DelayDecomposition
    underflow_count: int
    overflow_count: int
    slots_run: int
    ci_halfwidths: dict
    rate_hop_s: float = math.nan
    rate_hop_r: float = math.nan
    throughput_pps: float = math.nan
    mean_occupancy: float = math.nan
    bits_in: float = math.nan
    bits_out: float = math.nan
    final_occupancy: float = math.nan


# ---------------------------------------------------------------------------
# buffer paths

# per-batch totals of a run, in the order the slot-loop oracles of the tests
# return them; slot and packet counts are int64, bit, slot and error sums float64
_AdaptiveTotals = namedtuple("_AdaptiveTotals", """
    rate_s rate_r bits_in bits_out under over n_empty n_full n_inter
    sel_empty sel_inter sel2_full b_final
""")
_FixedTotals = namedtuple("_FixedTotals", """
    arrivals departures errs_s errs_r delay_sum occ_sum under over n_empty n_full n_inter
    sel_empty sel_inter sel2_full count_final
""")


def _bits(g):
    """Capacity log2(1 + g) of each SNR in g, rounded to a whole multiple of ``_GRID`` bit."""
    c = np.log1p(g)
    c *= _INV_LN2 / _GRID
    return np.multiply(np.rint(c, out=c), _GRID, out=c)


def _reflected_walk(x, start):
    """Levels B_n = max(B_{n-1} + x_n, 0) of a walk with B_{-1} = start.

    With T = start + cumsum(x), B = T - min(0, running min of T); B is exactly
    0 in the slots where T reaches a new running minimum at or below 0.
    """
    level = np.cumsum(x)
    level += start
    floor = np.minimum.accumulate(level)
    np.minimum(floor, 0, out=floor)
    level -= floor
    assert level.min() >= 0
    return level


def _replay_blocks(start, up, flip_c, flip_d, span, c_r, cap):
    """Replay blocks of slots from their start levels, all blocks at once.

    Per-slot arrays are (slot of the block, block), one contiguous row per
    slot. A slot selects as the slot loop did on the level B before it: by
    ``up``, flipped by ``flip_c`` if B == 0 and by ``flip_d`` if B >= cap.
    Its step sel * span - c_r (span = c_s + c_r) is c_s or -c_r, with no
    branch, and it takes B to min(max(B + step, 0), cap), written into the
    next row of the levels: on the ``_GRID`` the sums are exact, so this is
    the slot loop's fill and empty rule. Returns the level before every
    slot, the level after each block, and whether each block met a boundary.
    """
    levels = np.empty((up.shape[0] + 1, start.shape[0]))
    levels[0] = start
    step = np.empty(start.shape[0])
    for j in range(up.shape[0]):
        level, after = levels[j], levels[j + 1]
        sel = up[j] ^ (flip_c[j] & (level == 0.0))
        if cap < math.inf:
            sel ^= flip_d[j] & (level >= cap)
        np.multiply(span[j], sel, out=step)
        step -= c_r[j]
        np.add(level, step, out=after)
        np.maximum(after, 0.0, out=after)
        if cap < math.inf:
            np.minimum(after, cap, out=after)
    met = (levels.min(axis=0) == 0.0) | (levels.max(axis=0) >= cap)
    return levels[:-1], levels[-1], met


def _slot_maps(cap_n):
    """The nine per-slot maps of a finite packet buffer's count, as one flat table.

    Entry ``code * (cap_n + 1) + c`` is the count after a slot that starts at
    count c, where ``code = 4 * (gr <= rho_c*gs) + 2 * (gr <= rho*gs) +
    (gr <= rho_d*gs)``: an empty buffer selects by the first bit, a full one
    by the last, any other by the middle one; a selected slot adds a packet
    unless the buffer is full, another slot removes one unless it is empty.
    The ninth map, code 8, keeps the count.
    """
    count = np.arange(cap_n + 1)
    code = np.arange(8)[:, None]
    bit = np.where(count == 0, 2, np.where(count == cap_n, 0, 1))
    selected = (code >> bit) & 1 == 1
    step = np.where(selected, np.minimum(count + 1, cap_n), np.maximum(count - 1, 0))
    return np.concatenate((step.ravel(), count))


def _count_blocks(start, off, maps, cap_n):
    """``_replay_blocks`` for a buffer of cap_n packets: each slot maps the count by
    the ``_slot_maps`` entry at its offset ``off``."""
    before = np.empty(off.shape, np.intp)
    count = start.astype(np.intp)
    for j in range(off.shape[0]):
        before[j] = count
        count = maps[off[j] + count]
    met = ((before == 0) | (before == cap_n)).any(axis=0) | (count == 0) | (count == cap_n)
    return before, count, met


def _replay_levels(replay, per_slot, cap, start, guess):
    """Level before each slot of a chunk, and after its last, by a blocked replay.

    The chunk is cut into blocks of ``_BLOCK`` slots: each (array, fill) of
    ``per_slot`` is padded with fill and laid out slot-major, as a (slot of
    the block, block) array whose row j holds slot j of every block, and
    ``replay(starts, *rows)`` replays the blocks as ``_replay_blocks`` does.
    An infinite buffer starts block i + 1 at ``guess[i]``. A finite one
    replays the last ``_BLOCK // 2`` slots of block i from ``guess[i]``
    clipped to the capacity and starts block i + 1 where that ends: replays
    that are empty, or full, before the same slot agree from there on (the
    coupling of Propp and Wilson, 1996), so a tail that meets a boundary
    usually lands on the exact start. All blocks are then replayed at once,
    and the starts repaired, round by round: where a block's start differs
    from the end of the block before, the difference is carried through
    every following block that met no boundary (it only shifts), up to the
    first that did, and only the moved blocks are replayed. The rounds stop
    when every start equals its predecessor's end; bit levels on the
    ``_GRID`` add exactly, so the levels are then the slot loop's, and a
    guess changes only the rounds. A round sets the first wrong start to its
    predecessor's end, so there are at most as many rounds as blocks.

    With the seed's replay, 2**16-slot chunks (seeds 7, 11, 53) took 2
    rounds at 1 bit and 3 at 8 bits, whose repairs replay 2-3% of the blocks
    again (0.06% at 2 packets, 7-8% at 10; 83%, 39% and 24% from the
    clipped walk alone); 11-14 at 64 bits and 11-31 at 256, replaying every
    block 1.1-2.8 times; 1.5-2.3 for infinite buffers at (1.0466, 2.0, 0.5).
    """
    k = _BLOCK
    n = per_slot[0][0].shape[0]
    m = -(-n // k)
    pad = m * k - n
    rows = [np.append(a, np.full(pad, fill, a.dtype)) if pad else a for a, fill in per_slot]
    rows = [np.ascontiguousarray(a.reshape(m, k).T) for a in rows]
    starts = np.empty(m)
    starts[0] = start
    if math.isinf(cap):
        starts[1:] = guess[: m - 1]
    else:
        # replay the last half of every block but the last from the guess
        # clipped to the capacity: a boundary met there fixes the next start
        tail = np.minimum(guess[: m - 1], cap)
        starts[1:] = replay(tail, *(a[k // 2 :, : m - 1] for a in rows))[1]
    before, ends, met = replay(starts, *rows)
    index = np.arange(m)
    while True:
        want = np.concatenate(([start], ends[:-1]))
        diff = want - starts
        bad = diff != 0.0
        if not bad.any():
            del rows  # before the levels are copied back to slot order
            return before.T.ravel()[:n], ends[-1]
        # carry the corrections through each run of blocks that met no boundary
        d = np.where(bad, diff, 0.0)
        total = np.cumsum(d)
        first = np.maximum.accumulate(np.where(np.concatenate(([True], met[:-1])), index, 0))
        upstream = total - total[first] + d[first] - d  # from bad blocks before, same run
        moved = np.where(bad, want, starts) + upstream
        np.clip(moved, 0.0, cap, out=moved)
        todo = np.flatnonzero(moved != starts)
        starts = moved
        before[:, todo], ends[todo], met[todo] = replay(starts[todo], *(a[:, todo] for a in rows))


def _batch_adder(lo, hi, n_slots, nb):
    """Function adding per-slot values of slots lo..hi-1 into per-batch totals.

    Batches are the loops' contiguous slot ranges, the last one taking the
    remainder, so each batch's share of the chunk is one segment sum of its
    own slots' values: a small float total carries no rounding of larger ones.
    """
    size = max(n_slots // nb, 1)
    ids = np.arange(min(lo // size, nb - 1), min((hi - 1) // size, nb - 1) + 1)
    starts = np.maximum(ids * size - lo, 0)

    def add(total, values, at=None):
        """Add per-slot ``values``, or with ``at`` the values of the events at those offsets."""
        if at is not None:
            events, values = values, np.zeros(hi - lo, total.dtype)
            values[at] = events
        total[ids] += np.add.reduceat(values, starts, dtype=total.dtype)

    return add


def _batch_lengths(n_slots, nb):
    size = max(n_slots // nb, 1)
    lengths = np.full(nb, size, np.int64)
    lengths[-1] = n_slots - (nb - 1) * size
    return lengths


def _add_state_counts(add, totals, sel, before, cap):
    """Add the underflows and the slots and selections per buffer state; return (empty, full)."""
    empty = before == 0
    full = before >= cap
    inter = ~empty & ~full
    for name, values in (
        ("under", ~sel & empty),
        ("n_empty", empty),
        ("n_full", full),
        ("n_inter", inter),
        ("sel_empty", sel & empty),
        ("sel_inter", sel & inter),
        ("sel2_full", ~sel & full),
    ):
        add(totals[name], values)
    return empty, full


def _adaptive_totals(chunks, cap, start_b, n_slots, nb):
    """Per-batch totals of an adaptive run from the bit level before every slot.

    ``chunks`` yields the bit-level records of ``_chunks``; cap may be
    infinite. Given the levels, every per-slot term is elementwise: a
    selected slot offers its capacity and the buffer takes at most its room,
    another drains at most the level.
    """
    totals = {name: np.zeros(nb) for name in _AdaptiveTotals._fields[:4]}
    totals.update({name: np.zeros(nb, np.int64) for name in _AdaptiveTotals._fields[4:-1]})
    b_final = float(start_b)
    for lo, hi, sel, c, before, level in chunks:
        add = _batch_adder(lo, hi, n_slots, nb)
        _add_state_counts(add, totals, sel, before, cap)
        # one capacity array at a time: the second hop's, then the first hop's
        part = np.multiply(c, ~sel)
        add(totals["rate_r"], part)
        add(totals["bits_out"], np.minimum(part, before, out=part))
        np.multiply(c, sel, out=part)
        add(totals["rate_s"], part)
        room = cap - before
        add(totals["bits_in"], np.minimum(part, room, out=part))
        add(totals["over"], sel & (c > room))
        b_final = float(level)
        del part, room, sel, c, before  # before the next chunk is built
    return _AdaptiveTotals(**totals, b_final=b_final)


def _chunks(gs, gr, thr, cap, start, packets):
    """Chunk records of a run's buffer: the reflected walk, or the level replay.

    Each record is (lo, hi, hop-s selected, chosen hop's capacity, level
    before each slot, level after slot hi - 1) for consecutive slot ranges;
    with ``packets`` the capacity is None and the levels are int64 counts.
    A slot steps by one packet each when ``packets``, else by the chosen
    hop's capacity in bits from ``_bits``, on the grid where bit levels add
    exactly. An infinite buffer with rho_c == rho takes the reflected walk
    as its levels; every other buffer is replayed by ``_replay_levels`` from
    the guesses described there. Bit and finite packet buffers use chunks of
    ``_CHUNK`` slots, so that each replay step covers many blocks, and
    infinite packet buffers a quarter of that, over which their
    balance-point replay takes fewer repair rounds per chunk. The records
    are a quarter of ``_CHUNK`` long except on the exact bit walk, because
    their totals keep more per slot alive.
    """
    walk = math.isinf(cap) and thr.rho_c == thr.rho
    counts = packets and not math.isinf(cap)
    if counts:
        cap = int(cap)  # so that counts compare with it as integers
        replay = functools.partial(_count_blocks, maps=_slot_maps(cap), cap_n=cap)
    else:
        replay = functools.partial(_replay_blocks, cap=cap)
    level = start
    step = _CHUNK // 4 if packets and not counts else _CHUNK
    record = _CHUNK if walk and not packets else _CHUNK // 4
    ones = np.ones(step)  # a packet slot adds or removes one packet
    for lo in range(0, gs.shape[0], step):
        hi = min(lo + step, gs.shape[0])
        g_s, g_r = gs[lo:hi], gr[lo:hi]
        up = g_r <= thr.rho * g_s
        up_c, up_d = (up if r == thr.rho else g_r <= r * g_s for r in (thr.rho_c, thr.rho_d))
        if packets:
            span, c_r = 2.0 * ones[: hi - lo], ones[: hi - lo]
            x = 2 * up.astype(np.int64) - 1
        else:
            c_r = _bits(g_r)
            span = _bits(g_s) + c_r  # so that span * sel - c_r is c_s or -c_r, with no branch
            x = span * up - c_r
        if walk:
            # the levels after each slot, shifted to the levels before it
            before = _reflected_walk(x, level)
            before[1:], before[0], level = before[:-1], level, before[-1]
        elif packets or math.isinf(cap):
            # the walk's level before each block, or before the last half of each
            at = _BLOCK - 1 if math.isinf(cap) else _BLOCK // 2 - 1
            guess = _reflected_walk(x, level)[at::_BLOCK].copy()
        else:
            # the walk over half-block sums, at the end of each block's first half
            halves = np.add.reduceat(x, np.arange(0, hi - lo, _BLOCK // 2))
            guess = _reflected_walk(halves, level)[::2]
        del x  # before the replay lays the rows out
        if not walk:
            if counts:
                # padding slots take the ninth map, which keeps the count
                code = up_c.view(np.uint8) << 2 | up.view(np.uint8) << 1 | up_d.view(np.uint8)
                per_slot = [(code.astype(np.intp) * (cap + 1), 8 * (cap + 1))]
            else:
                # padding slots select the first hop and add nothing: they keep the level
                flips = [(up_c ^ up, False), (up_d ^ up, False)]
                per_slot = [(up, True), *flips, (span, 0.0), (c_r, 0.0)]
            before, level = _replay_levels(replay, per_slot, cap, level, guess)
            del guess, per_slot  # before the totals and the next chunk's walk
            if packets:
                before, level = before.astype(np.int64), int(level)
        if walk or up_c is up is up_d:
            sel = up
        else:
            sel = up ^ ((up_c ^ up) & (before == 0)) ^ ((up_d ^ up) & (before >= cap))
        c = None if packets else abs(span * sel - c_r)  # the chosen hop's capacity
        for a in range(0, hi - lo, record):
            b = min(a + record, hi - lo)
            end = level if b == hi - lo else before[b]
            yield lo + a, lo + b, sel[a:b], None if packets else c[a:b], before[a:b], end
        del before, sel, c  # before the next chunk is built, as its consumers do


def _match_fifo(queue, lo, hi, push_at, pop_at, before):
    """FIFO delivery: the k-th departure carries the k-th arrival.

    ``queue`` holds the arrival slots of the packets queued before slot lo,
    oldest first; push_at and pop_at are the chunk's arrival and departure
    offsets from lo. Returns the arrival slot of each departing packet and the
    queue after slot hi - 1.
    """
    queue = np.concatenate((queue, push_at + lo))
    return queue[: pop_at.shape[0]], queue[pop_at.shape[0] :]


def _match_lifo(stack, lo, hi, push_at, pop_at, before):
    """LIFO delivery: a departure at count c carries the latest arrival that raised the count to c.

    Same arguments as ``_match_fifo``, with ``stack`` bottom first. The
    crossings of the boundary between counts c - 1 and c alternate, up then
    down, if the packet held at level c when the chunk starts counts as an
    arrival there: so the k-th departure from level c carries the k-th
    arrival to level c, and a level occupied after slot hi - 1 holds its last
    arrival. The levels at or below the chunk's lowest count are never
    crossed and keep their packets; above it, arrivals and departures are
    stably sorted by level (a radix sort while the levels fit 16 bits) and
    paired by rank.
    """
    n_left = stack.shape[0] + push_at.shape[0] - pop_at.shape[0]
    floor = min(int(before.min()), n_left)
    # levels counted from the floor: the packet held at stack[floor + i] is at level i + 1
    held = np.arange(1, stack.shape[0] - floor + 1)
    reached = np.concatenate((held, before[push_at] - floor + 1))
    left_at = before[pop_at] - floor
    # a path of hi - lo unit steps spans at most hi - lo levels above its floor
    dtype = np.uint16 if hi - lo < 1 << 16 else np.int64
    by_level = np.argsort(reached.astype(dtype), kind="stable")
    slots = np.concatenate((stack[floor:], push_at + lo))[by_level]
    # the last arrival to each level still occupied stays; the others pair
    # with the departures from their level, in the same order
    last = np.cumsum(np.bincount(reached))[1 : n_left - floor + 1] - 1
    src = np.empty(pop_at.shape[0], np.int64)
    src[np.argsort(left_at.astype(dtype), kind="stable")] = np.delete(slots, last)
    return src, np.concatenate((stack[:floor], slots[last]))


def _fixed_totals(chunks, streams, mod, cap, lifo, start, nb):
    """Per-batch totals of a fixed-rate run from the buffer's count before every slot.

    ``chunks`` yields the packet records of ``_chunks``; cap may be
    infinite. Given the counts, every per-slot event is elementwise; the
    start packets count as arrived at slot 0, without a first-hop error. The
    error totals add each arrival's and each departure's error probability.
    """
    gs, gr = streams
    n_slots = gs.shape[0]
    totals = {name: np.zeros(nb, np.int64) for name in _FixedTotals._fields[:-1]}
    for name in ("errs_s", "errs_r", "delay_sum", "occ_sum"):
        totals[name] = np.zeros(nb)
    match = _match_lifo if lifo else _match_fifo
    held = np.zeros(start, np.int64)
    for lo, hi, sel, _, before, count in chunks:
        add = _batch_adder(lo, hi, n_slots, nb)
        empty, full = _add_state_counts(add, totals, sel, before, cap)
        arr = sel & ~full
        dep = ~sel & ~empty
        push_at = np.flatnonzero(arr)
        pop_at = np.flatnonzero(dep)
        src, held = match(held, lo, hi, push_at, pop_at, before)
        add(totals["delay_sum"], pop_at + lo - src, at=pop_at)
        add(totals["errs_s"], _error_prob(gs[lo + push_at], mod), at=push_at)
        add(totals["errs_r"], _error_prob(gr[lo + pop_at], mod), at=pop_at)
        for name, values in (
            ("arrivals", arr),
            ("departures", dep),
            ("occ_sum", before),
            ("over", sel & full),
        ):
            add(totals[name], values)
        assert held.shape[0] == count
        del sel, before, empty, full  # before the next chunk is built
    return _FixedTotals(**totals, count_final=held.shape[0])


def _walk_occupancy(gs, gr, rho, start_b, l_grid):
    """Slots whose end-of-slot bit level exceeds each L, for an infinite buffer.

    Each record's levels are sorted once, so one search of the grid into
    them counts the levels above every L, whatever the grid's size or order.
    """
    counts = np.zeros(l_grid.shape[0], np.int64)
    thr = SelectionThresholds.uniform(rho)
    for lo, hi, _, _, before, level in _chunks(gs, gr, thr, math.inf, start_b, packets=False):
        counts += hi - lo - np.searchsorted(np.sort(before), l_grid, side="right")
        del before  # before the next chunk is built
    # the level after each slot is the one before the next, then the last level
    return counts - (start_b > l_grid) + (level > l_grid)


# ---------------------------------------------------------------------------
# batch-mean helpers


def _batch_se(values: np.ndarray) -> float:
    v = values[np.isfinite(values)]
    if v.size < 2:
        return math.nan
    return float(v.std(ddof=1) / math.sqrt(v.size))


def _ratio_batches(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full(num.shape[0], math.nan)
    nz = den > 0
    out[nz] = num[nz].astype(np.float64) / den[nz]
    return out


def _safe_div(a: float, b: float) -> float:
    return a / b if b > 0 else math.nan


def _selection(t) -> tuple:
    """Empirical (q_s, q_c, q_d) of a run's totals, and their batch standard errors."""
    counts = ((t.sel_inter, t.n_inter), (t.sel_empty, t.n_empty), (t.sel2_full, t.n_full))
    lsp = tuple(_safe_div(float(k.sum()), float(m.sum())) for k, m in counts)
    se = {q: _batch_se(_ratio_batches(k, m)) for q, (k, m) in zip(("q_s", "q_c", "q_d"), counts)}
    return lsp, se


# ---------------------------------------------------------------------------
# per-scheme runners


def _draw_streams(pair: HopPair, slots: int, seed: int):
    """SNR streams of both hops, (gs, gr)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gs = sample_snr(pair.s, rng, size=slots)
    gr = sample_snr(pair.r, rng, size=slots)
    return gs, gr


def _nan_delay() -> DelayDecomposition:
    return DelayDecomposition(math.nan, math.nan, math.nan, math.nan)


def _run_cabr_adaptive(config, streams) -> SimOutcome:
    gs, gr = streams
    buf = config.buffer
    cap, start_b = (float(np.rint(b / _GRID) * _GRID) for b in (buf.capacity, buf.occupancy))
    n = config.slots
    nb = min(_N_BATCHES, n)
    chunks = _chunks(gs, gr, config.thresholds, cap, start_b, packets=False)
    t = _adaptive_totals(chunks, cap, start_b, n, nb)
    batch_sizes = _batch_lengths(n, nb).astype(np.float64)
    lsp, q_se = _selection(t)
    ci = {
        "rate_hop_s": _batch_se(t.rate_s / batch_sizes),
        "rate_hop_r": _batch_se(t.rate_r / batch_sizes),
        "avg_rate": _batch_se(t.bits_out / batch_sizes),
        **q_se,
    }
    return SimOutcome(
        avg_rate=float(t.bits_out.sum()) / n,
        lsp_empirical=lsp,
        ser_per_hop=(math.nan, math.nan),
        delay=_nan_delay(),
        underflow_count=int(t.under.sum()),
        overflow_count=int(t.over.sum()),
        slots_run=n,
        ci_halfwidths=ci,
        rate_hop_s=float(t.rate_s.sum()) / n,
        rate_hop_r=float(t.rate_r.sum()) / n,
        bits_in=float(t.bits_in.sum()),
        bits_out=float(t.bits_out.sum()),
        final_occupancy=float(t.b_final),
    )


def _run_cabr_fixed(config, streams) -> SimOutcome:
    gs, gr = streams
    mod = config.modulation
    cap = config.buffer.capacity
    start = int(config.buffer.occupancy)
    n = config.slots
    nb = min(_N_BATCHES, n)
    lifo = config.buffer.discipline == "lifo"
    chunks = _chunks(gs, gr, config.thresholds, cap, start, packets=True)
    t = _fixed_totals(chunks, streams, mod, cap, lifo, start, nb)
    batch_sizes = _batch_lengths(n, nb).astype(np.float64)
    dep_total = int(t.departures.sum())
    arr_total = int(t.arrivals.sum())
    if lifo and not math.isinf(cap):
        # newest-first drain: the framework's queueing delay tracks the
        # buffer vacancies, (L - mean occupancy) / arrival rate, because the
        # mean departed-packet age converges to the discipline-independent
        # residence time instead
        t_q = _safe_div(cap * n - float(t.occ_sum.sum()), arr_total)
        tq_b = _ratio_batches(cap * batch_sizes - t.occ_sum, t.arrivals)
    else:
        t_q = _safe_div(float(t.delay_sum.sum()), dep_total)
        tq_b = _ratio_batches(t.delay_sum, t.departures)
    t_u = _safe_div(float(t.under.sum()), dep_total)
    t_o = _safe_div(float(t.over.sum()), dep_total)
    tu_b = _ratio_batches(t.under.astype(np.float64), t.departures)
    to_b = _ratio_batches(t.over.astype(np.float64), t.departures)
    pps_b = t.departures / batch_sizes
    lsp, q_se = _selection(t)
    ci = {
        "throughput_pps": _batch_se(pps_b),
        "avg_rate": mod.rate_R * _batch_se(pps_b),
        "ser_s": _batch_se(_ratio_batches(t.errs_s, t.arrivals)),
        "ser_r": _batch_se(_ratio_batches(t.errs_r, t.departures)),
        "t_q": _batch_se(tq_b),
        "t_u": _batch_se(tu_b),
        "t_o": _batch_se(to_b),
        "t_total": _batch_se(tq_b + tu_b + to_b),
        **q_se,
        "mean_occupancy": _batch_se(t.occ_sum / batch_sizes),
    }
    return SimOutcome(
        avg_rate=mod.rate_R * dep_total / n,
        lsp_empirical=lsp,
        ser_per_hop=(
            _safe_div(float(t.errs_s.sum()), arr_total),
            _safe_div(float(t.errs_r.sum()), dep_total),
        ),
        delay=DelayDecomposition(t_q, t_u, t_o, t_q + t_u + t_o),
        underflow_count=int(t.under.sum()),
        overflow_count=int(t.over.sum()),
        slots_run=n,
        ci_halfwidths=ci,
        throughput_pps=dep_total / n,
        mean_occupancy=float(t.occ_sum.sum()) / n,
        final_occupancy=float(t.count_final),
    )


def _error_prob(g: np.ndarray, mod: ModulationParams) -> np.ndarray:
    return np.minimum(1.0, 0.5 * mod.phi * erfc(np.sqrt(0.5 * mod.eta * g)))


def _run_fixed_schedule(config, streams) -> SimOutcome:
    """cnbr or cbr: the relay is fed in one set of slots and drained in another."""
    gs, gr = streams
    n = config.slots
    half = n // 2
    if config.scheme == "cnbr":
        # even slots feed the relay, odd slots drain it
        fill, drain = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
    else:
        # the first half feeds the relay, the second drains it
        fill, drain = slice(0, half), slice(half, 2 * half)
    g_fill, g_drain = gs[fill], gr[drain]
    common = dict(
        lsp_empirical=(math.nan, math.nan, math.nan),
        delay=_nan_delay(),
        underflow_count=0,
        overflow_count=0,
        slots_run=n,
    )
    if config.rate_mode == "fixed":
        mod = config.modulation
        p_s, p_r = _error_prob(g_fill, mod), _error_prob(g_drain, mod)
        return SimOutcome(
            avg_rate=0.5 * mod.rate_R,
            ser_per_hop=(_safe_div(float(p_s.sum()), half), _safe_div(float(p_r.sum()), half)),
            ci_halfwidths={"ser_s": _batch_se(p_s), "ser_r": _batch_se(p_r)},
            throughput_pps=0.5,
            **common,
        )
    if config.scheme == "cnbr":
        w = 0.5 * np.log2(1.0 + np.minimum(g_fill, g_drain))
        rate = float(w.mean())
        se = _batch_se(w)
        bits = {}
    else:
        cs = np.log2(1.0 + g_fill)
        cr = np.log2(1.0 + g_drain)
        sum_in, sum_out = float(cs.sum()), float(cr.sum())
        binding = cs if sum_in <= sum_out else cr
        rate = min(sum_in, sum_out) / n
        se = 0.5 * _batch_se(binding)
        bits = {"bits_in": sum_in, "bits_out": min(sum_in, sum_out)}
    return SimOutcome(
        avg_rate=rate,
        ser_per_hop=(math.nan, math.nan),
        ci_halfwidths={"avg_rate": se},
        **bits,
        **common,
    )


def run(config: SchemeConfig, pair: HopPair) -> SimOutcome:
    """Execute one seeded run; identical (config, seed) gives identical output."""
    return _run_with_streams(config, _draw_streams(pair, config.slots, config.seed))


def _run_with_streams(config: SchemeConfig, streams) -> SimOutcome:
    if config.scheme != "cabr":
        return _run_fixed_schedule(config, streams)
    if config.rate_mode == "adaptive":
        return _run_cabr_adaptive(config, streams)
    return _run_cabr_fixed(config, streams)


def overflow_probability(
    config: SchemeConfig, pair: HopPair, l_grid: np.ndarray
) -> np.ndarray:
    """Pr{occupancy > L} for each L, from an unbounded-buffer occupancy trace.

    The trace starts at the buffer's occupancy. The threshold is expected to
    sit below the rate balance point so the trace is positive recurrent; the
    caller picks it (typically from the delay-bound inversion).
    """
    if config.scheme != "cabr" or config.rate_mode != "adaptive":
        raise ValueError("overflow curve requires an adaptive-rate cabr config")
    if not math.isinf(config.buffer.capacity):
        raise ValueError("overflow curve is measured on an unbounded buffer")
    thr = config.thresholds
    if thr.rho_c != thr.rho:
        raise ValueError("overflow curve needs rho_c == rho")
    grid = np.asarray(l_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("l_grid must be a non-empty 1-d array")
    gs, gr = _draw_streams(pair, config.slots, config.seed)
    start_b = float(np.rint(config.buffer.occupancy / _GRID) * _GRID)
    counts = _walk_occupancy(gs, gr, thr.rho, start_b, grid)
    return counts / config.slots
