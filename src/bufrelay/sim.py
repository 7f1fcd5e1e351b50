"""Slot-level Monte Carlo engine for the three relaying policies.

Adaptive-rate runs move fractional bits (capacity-achieving transmission,
buffer measured in bits per symbol); fixed-rate runs move whole packets whose
decode errors follow the per-symbol gaussian tail error model, with errored
packets forwarded rather than dropped. Standard errors come from batch means
(100 batches by default), which also absorbs the buffer-state autocorrelation
of fixed-rate runs.

A run's buffer is computed in chunks of slots, all in numpy, by ``_chunks``.
Each chunk's one-sided reflected walk is always computed: Lindley's
recursion B_n = max(B_{n-1} + x_n, 0), with cumulative sums and running
minima, where a first-hop slot raises the level and a second-hop slot
lowers it. An infinite buffer whose empty-buffer threshold equals the
interior one selects the same way in every slot, so the walk is its level:
overflow curves, and adaptive-rate and fixed-rate (FIFO or LIFO) cabr runs
with an infinite buffer and rho_c == rho. Every other buffer (finite bit or
packet buffers, and infinite buffers with rho_c != rho) has boundaries, and
the level replay repairs the walk there (``_replay_levels``): it guesses
each block's start from the walk, replays all blocks at once, one numpy
step per slot over a contiguous row of every block's slot, and repairs
the starts that disagree with the end of the block before. A block steps a
finite packet buffer's count through a table of per-slot count maps, and
any other level by the slot rules. A bit buffer, walked or replayed, is
computed in chunks of ``_CHUNK`` slots and a packet buffer in quarter
chunks; the totals read quarter-chunk records, except on the exact bit walk,
whose records are whole chunks.

Given the counts, every per-slot event of a fixed-rate run is elementwise; a
FIFO departure carries the oldest queued arrival, a LIFO departure at count c
the latest arrival that raised the count to c. Fixed-rate totals equal the
slot loop's exactly (every per-slot term is an integer); adaptive float sums
agree within 1e-9 relative, differing only in the rounding of the running
bit level, of the capacity logarithms, and of the order in which batch sums
are added. tests/test_sim.py keeps the slot loops as oracles and checks every
path against them on the same streams.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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
_CHUNK = 1 << 16  # slots per chunk of a bit buffer; a packet buffer takes a quarter
_BLOCK = 32  # slots per block of the level replay


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
        if self.rate_mode == "fixed":
            if self.modulation is None:
                raise ValueError("fixed rate_mode requires modulation")
            cap, occ = self.buffer.capacity, self.buffer.occupancy
            if not math.isinf(cap) and cap != int(cap):
                raise ValueError("buffer: packet-mode capacity must be a whole count")
            if occ != int(occ):
                raise ValueError("buffer: packet-mode occupancy must be a whole count")


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
# return them; slot and packet counts are int64, bit and slot sums float64
_AdaptiveTotals = namedtuple("_AdaptiveTotals", """
    rate_s rate_r bits_in bits_out under over n_empty n_full n_inter
    sel_empty sel_inter sel2_full b_final
""")
_FixedTotals = namedtuple("_FixedTotals", """
    arrivals departures errs_s errs_r delay_sum occ_sum under over n_empty n_full n_inter
    sel_empty sel_inter sel2_full count_final
""")


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


def _replay_blocks(start, up_c, up, up_d, c_s, neg_c_r, cap):
    """Replay blocks of slots from their start levels, all blocks at once.

    Per-slot arrays are (slot of the block, block), one contiguous row per
    slot. Each slot decides on the level B before it as the slot loop did: an
    empty buffer (B == 0) selects by ``up_c``, a full one (B >= cap) by
    ``up_d``, any other by ``up``; a selected slot adds c_s and fills the
    buffer if c_s >= cap - B, another adds neg_c_r = -c_r (the same float as
    B - c_r) and empties it if c_r >= B. Returns the level before every slot,
    the level after each block, and whether each block met a boundary.
    """
    level = start.copy()
    before = np.empty(up.shape)
    for j in range(up.shape[0]):
        before[j] = level
        sel = np.where(level == 0.0, up_c[j], np.where(level >= cap, up_d[j], up[j]))
        fill = sel & (c_s[j] >= cap - level)
        level = level + np.where(sel, c_s[j], neg_c_r[j])
        # B - c_r <= 0 exactly when c_r >= B, so the floor is the emptying test
        np.maximum(level, 0.0, out=level)
        np.copyto(level, cap, where=fill)
    met = ((before == 0.0) | (before >= cap)).any(axis=0) | (level == 0.0) | (level >= cap)
    return before, level, met


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


def _replay_levels(replay, per_slot, walk, cap, start):
    """Level before each slot of a chunk, and after its last, by a blocked replay.

    The chunk is cut into blocks of ``_BLOCK`` slots: each (array, fill) of
    ``per_slot`` is padded with fill and laid out slot-major, as a (slot of
    the block, block) array whose row j holds slot j of every block, and
    ``replay(starts, *rows)`` replays the blocks as ``_replay_blocks`` does.
    It repairs the chunk's one-sided reflected walk, the levels after each
    slot in ``walk``: every block's start is first guessed from it, clipped
    to the capacity, and all blocks are replayed from their guesses at once.
    Then the guesses are repaired, round by round: where a block's start
    differs from the end of the block before, the difference is carried
    through every following block that met no boundary (such a block only
    shifts its start), up to the first block that did, and only the moved
    blocks are replayed. The rounds stop when every start is within 2**-45
    of its predecessor's end (relative to the level, or to 32 bits near 0)
    and is empty or full exactly when that end is. A round sets the first
    wrong start to its predecessor's end, so there are at most as many
    rounds as blocks. A bit start kept within that tolerance can leave a
    level a few ulps from the slot loop's, at places that depend on the
    chunk and block lengths; counts are exact.

    With the carry, and counting the first replay, measured chunks (2**16
    slots for bits, 2**14 for packets) took on average 1.1-1.4 rounds for
    infinite buffers at the balance point (at most 3) and 3.8-4 at other
    thresholds (at most 6), 2-2.6 up to 8 bits (at most 3) and 2 at 2
    packets, 4.5 at 16 bits and 3.8 at 10 packets (at most 6), and 5-18
    where the capacity spans many blocks' drift (64-128 bits, at most 23),
    the one-sided seed being poor.
    """
    k = _BLOCK
    n = walk.shape[0]
    m = -(-n // k)
    pad = m * k - n
    rows = [np.append(a, np.full(pad, fill, a.dtype)) if pad else a for a, fill in per_slot]
    rows = [np.ascontiguousarray(a.reshape(m, k).T) for a in rows]
    starts = np.empty(m)
    starts[0] = start
    np.minimum(walk[k - 1 : (m - 1) * k : k], cap, out=starts[1:])
    before, ends, met = replay(starts, *rows)
    index = np.arange(m)
    while True:
        want = np.concatenate(([start], ends[:-1]))
        diff = want - starts
        bad = np.abs(diff) > 2.0**-46 * (np.abs(want) + np.abs(starts) + 64.0)
        bad |= (want == 0.0) != (starts == 0.0)
        bad |= (want >= cap) != (starts >= cap)
        if not bad.any():
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
    remainder, so each batch's share of the chunk is one segment sum.
    """
    size = max(n_slots // nb, 1)
    ids = np.arange(min(lo // size, nb - 1), min((hi - 1) // size, nb - 1) + 1)
    starts = np.maximum(ids * size - lo, 0)

    def add(total, values, at=None):
        """Add per-slot ``values``, or with ``at`` the values of the events at those sorted offsets."""
        if at is None:
            total[ids] += np.add.reduceat(values, starts, dtype=total.dtype)
            return
        bounds = np.searchsorted(at, np.append(starts, hi - lo))
        partial = np.concatenate(([0], np.cumsum(values, dtype=total.dtype)))
        total[ids] += partial[bounds[1:]] - partial[bounds[:-1]]

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
        part = np.where(sel, 0.0, c)
        add(totals["rate_r"], part)
        add(totals["bits_out"], np.minimum(part, before, out=part))
        np.multiply(c, sel, out=part)
        add(totals["rate_s"], part)
        room = cap - before
        add(totals["bits_in"], np.minimum(part, room, out=part))
        add(totals["over"], sel & (c > room))
        b_final = float(level)
        del part, room  # before the next chunk is built
    return _AdaptiveTotals(**totals, b_final=b_final)


def _chunks(gs, gr, thr, cap, start, packets):
    """Chunk records of a run's buffer: the reflected walk, repaired where it has boundaries.

    Each record is (lo, hi, hop-s selected, chosen hop's capacity, level
    before each slot, level after slot hi - 1) for consecutive slot ranges;
    with ``packets`` the capacity is None and the levels are int64 counts.
    The walk steps by one packet each when ``packets``, else by the chosen
    hop's capacity in bits. An infinite buffer with rho_c == rho takes it as
    its levels; every other buffer passes it to ``_replay_levels``, which
    repairs it. A bit chunk, walked or replayed, is ``_CHUNK`` slots long,
    so that each replay step covers many blocks; a packet chunk is a
    quarter of that. The records are a quarter of ``_CHUNK`` long except on
    the exact bit walk, because their totals keep more per slot alive.
    """
    walk = math.isinf(cap) and thr.rho_c == thr.rho
    counts = packets and not math.isinf(cap)
    if counts:
        cap = int(cap)  # so that counts compare with it as integers
        replay = functools.partial(_count_blocks, maps=_slot_maps(cap), cap_n=cap)
    else:
        replay = functools.partial(_replay_blocks, cap=cap)
    level = start
    step = _CHUNK // 4 if packets else _CHUNK
    record = _CHUNK if walk and not packets else _CHUNK // 4
    ones = np.ones(step)  # a packet slot adds or removes one packet
    for lo in range(0, gs.shape[0], step):
        hi = min(lo + step, gs.shape[0])
        g_s, g_r = gs[lo:hi], gr[lo:hi]
        up = g_r <= thr.rho * g_s
        up_c, up_d = (up if r == thr.rho else g_r <= r * g_s for r in (thr.rho_c, thr.rho_d))
        if packets:
            c_s = c_r = ones[: hi - lo]
            after = _reflected_walk(np.where(up, 1, -1), level)
        else:
            c_s, c_r = np.log1p(g_s), np.log1p(g_r)
            c_s *= _INV_LN2
            c_r *= _INV_LN2
            after = _reflected_walk(np.where(up, c_s, -c_r), level)
        if walk:
            before = np.empty_like(after)
            before[0] = level
            before[1:] = after[:-1]
            level = after[-1]
        else:
            if counts:
                # padding slots take the ninth map, which keeps the count
                code = up_c.view(np.uint8) << 2 | up.view(np.uint8) << 1 | up_d.view(np.uint8)
                per_slot = [(code.astype(np.intp) * (cap + 1), 8 * (cap + 1))]
            else:
                # padding slots select the first hop and add nothing: they keep the level
                per_slot = [(up_c, True), (up, True), (up_d, True), (c_s, 0.0), (-c_r, 0.0)]
            before, level = _replay_levels(replay, per_slot, after, cap, level)
            if packets:
                before, level = before.astype(np.int64), int(level)
        if up_c is up is up_d:
            sel = up
        else:
            sel = np.where(before == 0, up_c, np.where(before >= cap, up_d, up))
        c = None if packets else np.where(sel, c_s, c_r)
        for a in range(0, hi - lo, record):
            b = min(a + record, hi - lo)
            end = level if b == hi - lo else before[b]
            yield lo + a, lo + b, sel[a:b], None if packets else c[a:b], before[a:b], end


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

    Same arguments as ``_match_fifo``, with ``stack`` bottom first. Arrivals
    are keyed by (count reached, slot) and departures by (count left, slot),
    so each match is one ``searchsorted``; slots enter the key as offsets
    from lo plus one, and the packets carried in as slot 0.
    """
    span = hi - lo + 2
    keys = np.concatenate((
        np.arange(1, stack.shape[0] + 1) * span,
        (before[push_at] + 1) * span + push_at + 1,
    ))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    slots = np.concatenate((stack, push_at + lo))[order]
    taken = np.searchsorted(keys, before[pop_at] * span + pop_at + 1) - 1
    assert np.array_equal(keys[taken] // span, before[pop_at])
    n_left = stack.shape[0] + push_at.shape[0] - pop_at.shape[0]
    left = np.searchsorted(keys, np.arange(1, n_left + 1) * span + span - 1) - 1
    return slots[taken], slots[left]


def _fixed_totals(chunks, streams, mod, cap, lifo, start, nb):
    """Per-batch totals of a fixed-rate run from the buffer's count before every slot.

    ``chunks`` yields the packet records of ``_chunks``; cap may be
    infinite. Given the counts, every per-slot event is elementwise; the
    start packets count as arrived at slot 0, without a first-hop error.
    """
    gs, gr, e_s, e_r = streams
    n_slots = gs.shape[0]
    totals = {name: np.zeros(nb, np.int64) for name in _FixedTotals._fields[:-1]}
    totals["delay_sum"] = np.zeros(nb)
    totals["occ_sum"] = np.zeros(nb)
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
        add(totals["errs_s"], e_s[lo + push_at] < _error_prob(gs[lo + push_at], mod), at=push_at)
        add(totals["errs_r"], e_r[lo + pop_at] < _error_prob(gr[lo + pop_at], mod), at=pop_at)
        for name, values in (
            ("arrivals", arr),
            ("departures", dep),
            ("occ_sum", before),
            ("over", sel & full),
        ):
            add(totals[name], values)
        assert held.shape[0] == count
    return _FixedTotals(**totals, count_final=held.shape[0])


def _walk_occupancy(gs, gr, rho, start_b, l_grid):
    """Slots whose end-of-slot bit level exceeds each L, for an infinite buffer."""
    counts = np.zeros(l_grid.shape[0], np.int64)
    thr = SelectionThresholds.uniform(rho)
    for lo, hi, _, _, before, level in _chunks(gs, gr, thr, math.inf, start_b, packets=False):
        counts += [np.count_nonzero(before > limit) for limit in l_grid]
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


def _draw_streams(pair: HopPair, slots: int, seed: int, errors: bool = True):
    """SNR streams of both hops, then (if ``errors``) the decode-error uniforms."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gs = sample_snr(pair.s, rng, size=slots)
    gr = sample_snr(pair.r, rng, size=slots)
    if not errors:
        return gs, gr, None, None
    e_s = rng.random(slots)
    e_r = rng.random(slots)
    return gs, gr, e_s, e_r


def _nan_delay() -> DelayDecomposition:
    return DelayDecomposition(math.nan, math.nan, math.nan, math.nan)


def _run_cabr_adaptive(config, streams) -> SimOutcome:
    gs, gr, _, _ = streams
    cap = config.buffer.capacity
    start_b = float(config.buffer.occupancy)
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
    gs, gr, _, _ = streams
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


def _bernoulli_ser(p_err: np.ndarray, draws: np.ndarray) -> tuple:
    hits = draws < p_err
    n = hits.size
    if n == 0:
        return math.nan, math.nan
    p = float(hits.mean())
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _error_prob(g: np.ndarray, mod: ModulationParams) -> np.ndarray:
    from scipy.special import erfc

    return np.minimum(1.0, 0.5 * mod.phi * erfc(np.sqrt(0.5 * mod.eta * g)))


def _run_fixed_schedule(config, streams) -> SimOutcome:
    """cnbr or cbr: the relay is fed in one set of slots and drained in another."""
    gs, gr, e_s, e_r = streams
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
        p_s, se_s = _bernoulli_ser(_error_prob(g_fill, mod), e_s[fill])
        p_r, se_r = _bernoulli_ser(_error_prob(g_drain, mod), e_r[drain])
        return SimOutcome(
            avg_rate=0.5 * mod.rate_R,
            ser_per_hop=(p_s, p_r),
            ci_halfwidths={"ser_s": se_s, "ser_r": se_r},
            throughput_pps=0.5,
            **common,
        )
    if config.scheme == "cnbr":
        w = 0.5 * np.log2(1.0 + np.minimum(g_fill, g_drain))
        rate = float(w.mean())
        se = float(w.std(ddof=1) / math.sqrt(half)) if half > 1 else math.nan
        bits = {}
    else:
        cs = np.log2(1.0 + g_fill)
        cr = np.log2(1.0 + g_drain)
        sum_in, sum_out = float(cs.sum()), float(cr.sum())
        binding = cs if sum_in <= sum_out else cr
        rate = min(sum_in, sum_out) / n
        se = 0.5 * float(binding.std(ddof=1) / math.sqrt(half)) if half > 1 else math.nan
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
    streams = _draw_streams(pair, config.slots, config.seed, config.rate_mode == "fixed")
    return _run_with_streams(config, streams)


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
    gs, gr, _, _ = _draw_streams(pair, config.slots, config.seed, errors=False)
    counts = _walk_occupancy(gs, gr, thr.rho, float(config.buffer.occupancy), grid)
    return counts / config.slots
