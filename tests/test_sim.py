"""Slot-level Monte Carlo: determinism, invariants, agreement with closed forms."""

import math

import numpy as np
import pytest

from bufrelay import analytic, queueing, sim
from bufrelay.analytic import ModulationParams, SelectionThresholds
from bufrelay.sim import BufferState, SchemeConfig

from conftest import PAIR_MIXED, assert_within_sigma, run_lifo_duality_check

BPSK = ModulationParams(eta=2.0, phi=1.0)


def adaptive_cfg(rho, slots=200_000, seed=42, **kw):
    return SchemeConfig(
        "cabr", "adaptive", slots, seed,
        thresholds=SelectionThresholds.uniform(rho), **kw,
    )


def fixed_cfg(th, capacity, slots=300_000, seed=5, discipline="fifo", occupancy=0):
    return SchemeConfig(
        "cabr", "fixed", slots, seed,
        thresholds=th, modulation=BPSK,
        buffer=BufferState(discipline=discipline, capacity=capacity, occupancy=occupancy),
    )


class TestValidation:
    def test_scheme_and_mode(self):
        with pytest.raises(ValueError):
            SchemeConfig("dfr", "adaptive", 100, 1)
        with pytest.raises(ValueError):
            SchemeConfig("cnbr", "sometimes", 100, 1)
        with pytest.raises(ValueError):
            SchemeConfig("cnbr", "adaptive", 0, 1)

    def test_cabr_needs_thresholds(self):
        with pytest.raises(ValueError):
            SchemeConfig("cabr", "adaptive", 100, 1)

    def test_fixed_needs_modulation(self):
        with pytest.raises(ValueError):
            SchemeConfig(
                "cnbr", "fixed", 100, 1,
                buffer=BufferState(capacity=4),
            )

    def test_packet_buffer_must_hold_whole_counts(self):
        th = SelectionThresholds.uniform(0.6)
        for capacity, occupancy in ((2.5, 0), (8, 2.5)):
            with pytest.raises(ValueError, match="whole count"):
                fixed_cfg(th, capacity, occupancy=occupancy)
            # fractional bits are fine
            adaptive_cfg(0.6, buffer=BufferState(capacity=capacity, occupancy=occupancy))
        fixed_cfg(th, math.inf, occupancy=3)

    def test_buffer_state(self):
        with pytest.raises(ValueError):
            BufferState(discipline="rand")
        with pytest.raises(ValueError):
            BufferState(capacity=0.0)
        with pytest.raises(ValueError):
            BufferState(capacity=2.0, occupancy=3.0)
        BufferState(capacity=2.5, occupancy=0.5)  # the unit is the run's


class TestDeterminism:
    def test_identical_seeds_identical_output(self):
        a = sim.run(adaptive_cfg(0.8, slots=50_000), PAIR_MIXED)
        b = sim.run(adaptive_cfg(0.8, slots=50_000), PAIR_MIXED)
        assert a.avg_rate == b.avg_rate
        assert a.lsp_empirical == b.lsp_empirical
        assert a.underflow_count == b.underflow_count
        assert a.final_occupancy == b.final_occupancy

    def test_seed_changes_output(self):
        a = sim.run(adaptive_cfg(0.8, slots=50_000, seed=1), PAIR_MIXED)
        b = sim.run(adaptive_cfg(0.8, slots=50_000, seed=2), PAIR_MIXED)
        assert a.avg_rate != b.avg_rate


class TestAdaptiveRuns:
    def test_cabr_rate_and_selection(self):
        rho = 0.8
        out = sim.run(adaptive_cfg(rho, slots=300_000), PAIR_MIXED)
        # below the balance point delivery is source-limited
        ref = analytic.avg_rate_cabr_hop_s(PAIR_MIXED, rho)
        assert_within_sigma(
            out.avg_rate, out.ci_halfwidths["avg_rate"], ref, 4.5, "cabr rate"
        )
        q_s = analytic.lsp(PAIR_MIXED, rho)[0]
        se = math.sqrt(q_s * (1 - q_s) / out.slots_run)
        assert_within_sigma(out.lsp_empirical[0], se, q_s, 4.5, "lsp")

    def test_bit_conservation(self):
        out = sim.run(adaptive_cfg(0.8, slots=100_000), PAIR_MIXED)
        assert out.bits_out <= out.bits_in
        assert out.final_occupancy == pytest.approx(
            out.bits_in - out.bits_out, abs=1e-9
        )
        assert out.overflow_count == 0  # unbounded buffer never rejects

    def test_finite_bit_buffer_respects_capacity(self):
        out = sim.run(
            adaptive_cfg(2.0, slots=100_000, buffer=BufferState(capacity=12.0)),
            PAIR_MIXED,
        )
        assert out.final_occupancy <= 12.0 + 1e-12
        assert out.overflow_count > 0  # growth-heavy threshold hits the cap

    def test_cnbr_rate(self):
        out = sim.run(SchemeConfig("cnbr", "adaptive", 300_000, 3), PAIR_MIXED)
        assert_within_sigma(
            out.avg_rate,
            out.ci_halfwidths["avg_rate"],
            analytic.avg_rate_cnbr(PAIR_MIXED),
            4.5,
            "cnbr rate",
        )

    def test_cbr_rate(self):
        out = sim.run(SchemeConfig("cbr", "adaptive", 300_000, 3), PAIR_MIXED)
        assert_within_sigma(
            out.avg_rate,
            out.ci_halfwidths["avg_rate"],
            analytic.avg_rate_cbr(PAIR_MIXED),
            4.5,
            "cbr rate",
        )


class TestFixedRuns:
    def test_chain_statistics(self):
        # distinct boundary thresholds exercise all three chain parameters
        th = SelectionThresholds(rho=0.6, rho_c=1.2, rho_d=0.3)
        capacity = 8
        out = sim.run(fixed_cfg(th, capacity, slots=400_000), PAIR_MIXED)
        q_s = analytic.lsp(PAIR_MIXED, th.rho)[0]
        q_c = analytic.lsp(PAIR_MIXED, th.rho_c)[0]
        q_d = 1.0 - analytic.lsp(PAIR_MIXED, th.rho_d)[0]
        chain = queueing.ThresholdProtocolParams(capacity, q_s, q_c, q_d)
        checks = [
            ("throughput_pps", out.throughput_pps, queueing.throughput(chain)),
            ("t_q", out.delay.t_q, queueing.delays(chain).t_q),
            ("t_u", out.delay.t_u, queueing.delays(chain).t_u),
            ("t_o", out.delay.t_o, queueing.delays(chain).t_o),
            ("mean_occupancy", out.mean_occupancy, queueing.mean_occupancy(chain)),
        ]
        for name, est, ref in checks:
            assert_within_sigma(est, out.ci_halfwidths[name], ref, 4.5, name)

    def test_ser_mix(self):
        th = SelectionThresholds(rho=0.6, rho_c=1.2, rho_d=0.3)
        capacity = 8
        out = sim.run(fixed_cfg(th, capacity, slots=400_000), PAIR_MIXED)
        q_s = analytic.lsp(PAIR_MIXED, th.rho)[0]
        q_c = analytic.lsp(PAIR_MIXED, th.rho_c)[0]
        q_d = 1.0 - analytic.lsp(PAIR_MIXED, th.rho_d)[0]
        chain = queueing.ThresholdProtocolParams(capacity, q_s, q_c, q_d)
        interior = analytic.ser_exact_cabr(PAIR_MIXED, th.rho, BPSK)
        p_c = analytic.ser_exact_cabr(PAIR_MIXED, th.rho_c, BPSK).p_s
        p_d = analytic.ser_exact_cabr(PAIR_MIXED, th.rho_d, BPSK).p_r
        ref_s, ref_r = queueing.ser_threshold(
            chain, interior.p_s, p_c, interior.p_r, p_d
        )
        assert_within_sigma(
            out.ser_per_hop[0], out.ci_halfwidths["ser_s"], ref_s, 4.5, "ser_s"
        )
        assert_within_sigma(
            out.ser_per_hop[1], out.ci_halfwidths["ser_r"], ref_r, 4.5, "ser_r"
        )

    def test_balanced_threshold_half_duty(self):
        rho = analytic.rho_opt_fixed(PAIR_MIXED)
        out = sim.run(
            fixed_cfg(SelectionThresholds.uniform(rho), 8, slots=300_000), PAIR_MIXED
        )
        assert_within_sigma(
            out.throughput_pps,
            out.ci_halfwidths["throughput_pps"],
            4.0 / 9.0,  # balanced chain with L=8, q_c=q_s, q_d=q_r
            4.5,
            "tau at balance",
        )


class TestDuality:
    def test_fixed_fifo_vs_reversed_lifo(self):
        th = SelectionThresholds(rho=0.7, rho_c=1.1, rho_d=0.4)
        rep = run_lifo_duality_check(
            fixed_cfg(th, 6, slots=150_000), PAIR_MIXED
        )
        for key, diff in rep.differences.items():
            assert diff <= 4.0 * rep.sigmas[key] + 1e-12, key

    @pytest.mark.parametrize("occupancy", [0, 3, 6])
    def test_mirror_starts_at_mirrored_occupancy(self, occupancy):
        # the mirror of level B is L - B, so from a mirrored start every
        # original underflow slot is a dual overflow slot
        th = SelectionThresholds(rho=0.7, rho_c=1.1, rho_d=0.4)
        rep = run_lifo_duality_check(
            fixed_cfg(th, 6, slots=20_000, occupancy=occupancy), PAIR_MIXED
        )
        assert rep.differences["underflow_vs_dual_overflow"] == 0.0

    @pytest.mark.parametrize("rate_mode", ["fixed", "adaptive"])
    def test_infinite_buffer_has_no_mirror(self, rate_mode):
        if rate_mode == "fixed":
            config = fixed_cfg(SelectionThresholds.uniform(0.7), math.inf, slots=20_000)
        else:
            config = adaptive_cfg(0.7, slots=20_000)
        with pytest.raises(ValueError, match="finite buffer"):
            run_lifo_duality_check(config, PAIR_MIXED)

    def test_symmetric_pair_is_self_dual(self):
        pair = analytic.HopPair(PAIR_MIXED.s, PAIR_MIXED.s)
        rep = run_lifo_duality_check(
            fixed_cfg(SelectionThresholds.uniform(1.0), 5, slots=120_000), pair
        )
        for key, diff in rep.differences.items():
            assert diff <= 4.0 * rep.sigmas[key] + 1e-12, key


class TestOverflowCurve:
    def test_requires_adaptive_unbounded_cabr(self):
        grid = np.array([2.0, 4.0])
        with pytest.raises(ValueError):
            sim.overflow_probability(
                SchemeConfig("cnbr", "adaptive", 1000, 1), PAIR_MIXED, grid
            )
        with pytest.raises(ValueError):
            sim.overflow_probability(
                adaptive_cfg(0.3, slots=1000, buffer=BufferState(capacity=9.0)),
                PAIR_MIXED,
                grid,
            )
        with pytest.raises(ValueError):
            sim.overflow_probability(
                adaptive_cfg(0.3, slots=1000), PAIR_MIXED, np.array([])
            )
        with pytest.raises(ValueError):
            sim.overflow_probability(
                SchemeConfig(
                    "cabr", "adaptive", 1000, 1,
                    thresholds=SelectionThresholds(0.3, 0.6, 0.3),
                ),
                PAIR_MIXED,
                grid,
            )

    def test_starts_at_buffer_occupancy(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        empty = sim.overflow_probability(adaptive_cfg(0.3, slots=2000, seed=11), PAIR_MIXED, grid)
        loaded = sim.overflow_probability(
            adaptive_cfg(0.3, slots=2000, seed=11, buffer=BufferState(occupancy=30.0)),
            PAIR_MIXED,
            grid,
        )
        assert np.all(loaded >= empty) and loaded[-1] > empty[-1]

    def test_monotone_and_reproducible(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        cfg = adaptive_cfg(0.3, slots=200_000, seed=11)
        probs = sim.overflow_probability(cfg, PAIR_MIXED, grid)
        assert np.all(probs[:-1] >= probs[1:])
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        again = sim.overflow_probability(cfg, PAIR_MIXED, grid)
        assert np.array_equal(probs, again)
        assert probs[0] > probs[-1] > 0.0


# ---------------------------------------------------------------------------
# slot-loop oracles: the simulator's original per-slot kernels, one Python
# iteration per slot

_INV_LN2 = 1.0 / math.log(2.0)


def _kernel_adaptive(gs, gr, rho, rho_c, rho_d, cap, start_b, nb):
    """Slot loop of an adaptive cabr run: per-batch totals in ``sim._AdaptiveTotals`` order."""
    n_slots = gs.shape[0]
    batch = max(n_slots // nb, 1)
    rate_s = np.zeros(nb)
    rate_r = np.zeros(nb)
    bits_in = np.zeros(nb)
    bits_out = np.zeros(nb)
    under = np.zeros(nb, np.int64)
    over = np.zeros(nb, np.int64)
    n_empty = np.zeros(nb, np.int64)
    n_full = np.zeros(nb, np.int64)
    n_inter = np.zeros(nb, np.int64)
    sel_empty = np.zeros(nb, np.int64)
    sel_inter = np.zeros(nb, np.int64)
    sel2_full = np.zeros(nb, np.int64)
    B = start_b
    for n in range(n_slots):
        b = min(n // batch, nb - 1)
        if B == 0.0:
            r = rho_c
            state = 0
            n_empty[b] += 1
        elif B >= cap:
            r = rho_d
            state = 2
            n_full[b] += 1
        else:
            r = rho
            state = 1
            n_inter[b] += 1
        if gr[n] <= r * gs[n]:
            cs = math.log1p(gs[n]) * _INV_LN2
            rate_s[b] += cs
            if state == 0:
                sel_empty[b] += 1
            elif state == 1:
                sel_inter[b] += 1
            room = cap - B
            if cs >= room:
                bits_in[b] += room
                B = cap
                if cs > room:
                    over[b] += 1
            else:
                bits_in[b] += cs
                B += cs
        else:
            cr = math.log1p(gr[n]) * _INV_LN2
            rate_r[b] += cr
            if state == 2:
                sel2_full[b] += 1
            if B == 0.0:
                under[b] += 1
            elif cr >= B:
                bits_out[b] += B
                B = 0.0
            else:
                bits_out[b] += cr
                B -= cr
        assert 0.0 <= B <= cap
    return (
        rate_s,
        rate_r,
        bits_in,
        bits_out,
        under,
        over,
        n_empty,
        n_full,
        n_inter,
        sel_empty,
        sel_inter,
        sel2_full,
        B,
    )


def _kernel_fixed(gs, gr, e_s, e_r, rho, rho_c, rho_d, cap_n, phi, eta, lifo, start, nb):
    """Slot loop of a fixed-rate cabr run: per-batch totals in ``sim._FixedTotals`` order.

    ``cap_n`` sizes the ring of queued arrival slots; an infinite buffer
    passes start + slots, which holds every packet the run can queue.
    """
    n_slots = gs.shape[0]
    batch = max(n_slots // nb, 1)
    arrivals = np.zeros(nb, np.int64)
    departures = np.zeros(nb, np.int64)
    errs_s = np.zeros(nb, np.int64)
    errs_r = np.zeros(nb, np.int64)
    delay_sum = np.zeros(nb)
    occ_sum = np.zeros(nb)
    under = np.zeros(nb, np.int64)
    over = np.zeros(nb, np.int64)
    n_empty = np.zeros(nb, np.int64)
    n_full = np.zeros(nb, np.int64)
    n_inter = np.zeros(nb, np.int64)
    sel_empty = np.zeros(nb, np.int64)
    sel_inter = np.zeros(nb, np.int64)
    sel2_full = np.zeros(nb, np.int64)
    # arrival slot of each queued packet; the start packets arrived at slot 0
    buf_slot = np.zeros(cap_n, np.int64)
    head = 0  # fifo read position; lifo uses count as stack pointer
    count = start
    for n in range(n_slots):
        b = min(n // batch, nb - 1)
        occ_sum[b] += count
        if count == 0:
            r = rho_c
            state = 0
            n_empty[b] += 1
        elif count == cap_n:
            r = rho_d
            state = 2
            n_full[b] += 1
        else:
            r = rho
            state = 1
            n_inter[b] += 1
        if gr[n] <= r * gs[n]:
            if state == 0:
                sel_empty[b] += 1
            elif state == 1:
                sel_inter[b] += 1
            if count == cap_n:
                over[b] += 1
            else:
                pe = 0.5 * phi * math.erfc(math.sqrt(0.5 * eta * gs[n]))
                if pe > 1.0:
                    pe = 1.0
                buf_slot[(head + count) % cap_n] = n
                count += 1
                arrivals[b] += 1
                errs_s[b] += 1 if e_s[n] < pe else 0
        else:
            if state == 2:
                sel2_full[b] += 1
            if count == 0:
                under[b] += 1
            else:
                if lifo:
                    read = (head + count - 1) % cap_n
                else:
                    read = head
                    head = (head + 1) % cap_n
                count -= 1
                pe = 0.5 * phi * math.erfc(math.sqrt(0.5 * eta * gr[n]))
                if pe > 1.0:
                    pe = 1.0
                departures[b] += 1
                errs_r[b] += 1 if e_r[n] < pe else 0
                delay_sum[b] += n - buf_slot[read]
        assert 0 <= count <= cap_n
    return (
        arrivals,
        departures,
        errs_s,
        errs_r,
        delay_sum,
        occ_sum,
        under,
        over,
        n_empty,
        n_full,
        n_inter,
        sel_empty,
        sel_inter,
        sel2_full,
        count,
    )


def _occupancy_oracle(gs, gr, rho, start_b, l_grid):
    """Slot loop counting end-of-slot bit levels above each L (no cap)."""
    counts = np.zeros(l_grid.shape[0], np.int64)
    B = start_b
    for n in range(gs.shape[0]):
        if gr[n] <= rho * gs[n]:
            B += math.log1p(gs[n]) / math.log(2.0)
        else:
            B = max(B - math.log1p(gr[n]) / math.log(2.0), 0.0)
        counts += B > l_grid
    return counts


# (chunk, slots, batches): below one chunk, an exact multiple of it, not a
# multiple, batch counts that do not divide the slots, and the real chunk size
WALK_SHAPES = [
    (1000, 700, 100),
    (1000, 3000, 100),
    (1000, 3517, 100),
    (1000, 3517, 7),
    (sim._CHUNK, sim._CHUNK + 777, 100),
]


@pytest.fixture(params=WALK_SHAPES, ids=lambda s: f"chunk{s[0]}-slots{s[1]}-nb{s[2]}")
def walk_shape(request, monkeypatch):
    chunk, slots, nb = request.param
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    return slots, nb


def _assert_totals_equal(got, want):
    """Every total equal, float sums included (their per-slot terms are integers)."""
    want = type(got)(*want)
    for name in got._fields:
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w), name


def _assert_totals_match(got, want, skip=()):
    """Integer totals equal; per-batch float sums within 1e-9 relative."""
    want = type(got)(*want)
    for name in got._fields:
        if name in skip:
            continue
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        if w.dtype.kind == "i":
            assert g.dtype.kind == "i" and np.array_equal(g, w), name
        else:
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=0.0, err_msg=name)


class TestVectorizedWalks:
    """Each reflected-walk path against its slot loop on the same streams."""

    # 0.8 sits below the balance point (1.047); 3.0 makes the walk transient
    @pytest.mark.parametrize("rho, start_b", [(0.8, 0.0), (0.8, 5.5), (3.0, 0.0)])
    def test_adaptive_matches_loop(self, walk_shape, rho, start_b):
        slots, nb = walk_shape
        gs, gr, _, _ = sim._draw_streams(PAIR_MIXED, slots, 17, errors=False)
        thr = SelectionThresholds.uniform(rho)
        chunks = sim._chunks(gs, gr, thr, math.inf, start_b, packets=False)
        got = sim._adaptive_totals(chunks, math.inf, start_b, slots, nb)
        want = _kernel_adaptive(gs, gr, rho, rho, rho, math.inf, start_b, nb)
        _assert_totals_match(got, want, skip=("b_final",))
        # the end level carries the rounding of every bit moved
        bits_in = got.bits_in.sum()
        assert got.b_final == pytest.approx(want[-1], rel=1e-9, abs=1e-12 * bits_in)

    @staticmethod
    def _check_fixed(walk_shape, rho, start, lifo):
        slots, nb = walk_shape
        streams = sim._draw_streams(PAIR_MIXED, slots, 23)
        thr = SelectionThresholds.uniform(rho)
        chunks = sim._chunks(*streams[:2], thr, math.inf, start, packets=True)
        got = sim._fixed_totals(chunks, streams, BPSK, math.inf, lifo, start, nb)
        want = _kernel_fixed(
            *streams, rho, rho, rho, start + slots, BPSK.phi, BPSK.eta, lifo, start, nb
        )
        _assert_totals_equal(got, want)

    @pytest.mark.parametrize("rho", [0.6, 3.0])
    def test_fixed_fifo_matches_loop(self, walk_shape, rho):
        self._check_fixed(walk_shape, rho, 0, False)

    @pytest.mark.parametrize(
        "rho, start, lifo", [(0.6, 5, False), (0.6, 0, True), (0.6, 5, True), (3.0, 0, True)]
    )
    def test_fixed_start_and_lifo_match_loop(self, walk_shape, rho, start, lifo):
        self._check_fixed(walk_shape, rho, start, lifo)

    @staticmethod
    def _check_occupancy(walk_shape, rho, start_b):
        slots, _ = walk_shape
        gs, gr, _, _ = sim._draw_streams(PAIR_MIXED, slots, 29, errors=False)
        grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
        got = sim._walk_occupancy(gs, gr, rho, start_b, grid)
        assert np.array_equal(got, _occupancy_oracle(gs, gr, rho, start_b, grid))

    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_occupancy_matches_loop(self, walk_shape, rho):
        self._check_occupancy(walk_shape, rho, 0.0)

    def test_occupancy_from_start_matches_loop(self, walk_shape):
        self._check_occupancy(walk_shape, 0.5, 6.0)

    def test_error_draws_do_not_shift_snr_streams(self):
        with_errors = sim._draw_streams(PAIR_MIXED, 5000, 3)
        without = sim._draw_streams(PAIR_MIXED, 5000, 3, errors=False)
        assert np.array_equal(with_errors[0], without[0])
        assert np.array_equal(with_errors[1], without[1])
        assert without[2] is None and without[3] is None

    @pytest.mark.parametrize(
        "rate_mode, thresholds, buffer, replayed",
        [
            ("adaptive", SelectionThresholds.uniform(0.8), BufferState(), False),
            ("adaptive", SelectionThresholds(0.8, 2.0, 0.8), BufferState(), True),
            (
                "adaptive",
                SelectionThresholds.uniform(0.8),
                BufferState(capacity=8.0),
                True,
            ),
            ("fixed", SelectionThresholds.uniform(0.6), BufferState(), False),
            (
                "fixed",
                SelectionThresholds.uniform(0.6),
                BufferState(discipline="lifo"),
                False,
            ),
            (
                "fixed",
                SelectionThresholds(0.6, 1.2, 0.6),
                BufferState(),
                True,
            ),
            (
                "fixed",
                SelectionThresholds.uniform(0.6),
                BufferState(capacity=8),
                True,
            ),
            (
                "fixed",
                SelectionThresholds(0.6, 1.2, 0.3),
                BufferState(discipline="lifo", capacity=8),
                True,
            ),
        ],
    )
    def test_path_follows_buffer_and_thresholds(
        self, monkeypatch, rate_mode, thresholds, buffer, replayed
    ):
        calls = []
        levels = sim._replay_levels
        monkeypatch.setattr(sim, "_replay_levels", lambda *a: calls.append(1) or levels(*a))
        config = SchemeConfig(
            "cabr", rate_mode, 2000, 1,
            thresholds=thresholds, modulation=BPSK, buffer=buffer,
        )
        sim.run(config, PAIR_MIXED)
        assert bool(calls) == replayed


# uniform, rho_c > rho > rho_d (the boundaries push toward the interior), and
# rho_c < rho < rho_d (they hold the buffer at its boundaries)
SCAN_THRESHOLDS = [
    SelectionThresholds.uniform(0.9),
    SelectionThresholds(0.6, 1.2, 0.3),
    SelectionThresholds(1.0, 0.5, 2.0),
]


class TestFiniteScan:
    """Finite packet buffers, replayed through the count table, against the slot loop."""

    @pytest.mark.parametrize("lifo", [False, True], ids=["fifo", "lifo"])
    @pytest.mark.parametrize("thr", SCAN_THRESHOLDS, ids=["uniform", "inward", "outward"])
    @pytest.mark.parametrize("cap_n", [1, 2, 16, 64])
    def test_scan_matches_loop(self, walk_shape, monkeypatch, cap_n, thr, lifo):
        slots, nb = walk_shape
        streams = sim._draw_streams(PAIR_MIXED, slots, 31 + cap_n)
        want = _kernel_fixed(
            *streams, thr.rho, thr.rho_c, thr.rho_d, cap_n, BPSK.phi, BPSK.eta, lifo, 0, nb
        )
        # blocks of 8 slots meet fewer boundaries and take more repair rounds
        for block in (sim._BLOCK, 8):
            monkeypatch.setattr(sim, "_BLOCK", block)
            chunks = sim._chunks(*streams[:2], thr, cap_n, 0, packets=True)
            got = sim._fixed_totals(chunks, streams, BPSK, cap_n, lifo, 0, nb)
            _assert_totals_equal(got, want)

    @pytest.mark.parametrize("lifo", [False, True], ids=["fifo", "lifo"])
    def test_start_occupancy(self, lifo):
        th = SelectionThresholds(rho=0.6, rho_c=1.2, rho_d=0.3)
        runs = {}
        for occupancy in (0, 5):
            config = fixed_cfg(
                th, 8, slots=2000, discipline="lifo" if lifo else "fifo", occupancy=occupancy
            )
            runs[occupancy] = sim.run(config, PAIR_MIXED)
            streams = sim._draw_streams(PAIR_MIXED, 2000, config.seed)
            want = _kernel_fixed(
                *streams, th.rho, th.rho_c, th.rho_d, 8, BPSK.phi, BPSK.eta, lifo, occupancy, 20
            )
            chunks = sim._chunks(*streams[:2], th, 8, occupancy, packets=True)
            _assert_totals_equal(
                sim._fixed_totals(chunks, streams, BPSK, 8, lifo, occupancy, 20), want
            )
        assert runs[5].mean_occupancy != runs[0].mean_occupancy


RHO_BALANCE = analytic.avg_rate_cabr(PAIR_MIXED)[1]  # adaptive rate, 1.0466
RHO_BALANCE_FIXED = analytic.rho_opt_fixed(PAIR_MIXED)  # fixed rate, 0.9461

# at the balance point an infinite buffer's walk is null recurrent: its long
# excursions cross many blocks, and rho_c != rho makes every return to 0
# diverge from the walk that seeds the replay
REPLAY_THRESHOLDS = SCAN_THRESHOLDS + [SelectionThresholds(RHO_BALANCE, 2.0, 0.5)]
REPLAY_IDS = ["uniform", "inward", "outward", "balance"]


class TestLevelReplay:
    """The level replay against the slot loops on the same streams.

    Each case runs at the real block size and at 8 slots, whose blocks meet
    fewer boundaries and so take more repair rounds.
    """

    @pytest.mark.parametrize("start", ["empty", "mid", "full"])
    @pytest.mark.parametrize("thr", REPLAY_THRESHOLDS, ids=REPLAY_IDS)
    @pytest.mark.parametrize("cap", [0.5, 1.0, 8.0, 64.0, math.inf])
    def test_bits_match_loop(self, walk_shape, monkeypatch, cap, thr, start):
        slots, nb = walk_shape
        # an infinite buffer has no full level: start it high instead
        start_b = {"empty": 0.0, "mid": min(cap / 2, 5.5), "full": min(cap, 40.0)}[start]
        gs, gr, _, _ = sim._draw_streams(PAIR_MIXED, slots, 41, errors=False)
        want = _kernel_adaptive(gs, gr, thr.rho, thr.rho_c, thr.rho_d, cap, start_b, nb)
        for block in (sim._BLOCK, 8):
            monkeypatch.setattr(sim, "_BLOCK", block)
            chunks = sim._chunks(gs, gr, thr, cap, start_b, packets=False)
            got = sim._adaptive_totals(chunks, cap, start_b, slots, nb)
            _assert_totals_match(got, want, skip=("b_final",))
            bits_in = got.bits_in.sum()
            assert got.b_final == pytest.approx(want[-1], rel=1e-9, abs=1e-12 * bits_in)

    @pytest.mark.parametrize("lifo", [False, True], ids=["fifo", "lifo"])
    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize(
        "thr",
        SCAN_THRESHOLDS[1:] + [SelectionThresholds(RHO_BALANCE_FIXED, 1.2, 0.3)],
        ids=REPLAY_IDS[1:],
    )
    def test_infinite_packets_match_loop(self, walk_shape, monkeypatch, thr, start, lifo):
        slots, nb = walk_shape
        streams = sim._draw_streams(PAIR_MIXED, slots, 43)
        want = _kernel_fixed(
            *streams, thr.rho, thr.rho_c, thr.rho_d, start + slots, BPSK.phi, BPSK.eta, lifo,
            start, nb,
        )
        for block in (sim._BLOCK, 8):
            monkeypatch.setattr(sim, "_BLOCK", block)
            chunks = sim._chunks(*streams[:2], thr, math.inf, start, packets=True)
            got = sim._fixed_totals(chunks, streams, BPSK, math.inf, lifo, start, nb)
            _assert_totals_equal(got, want)

    @pytest.mark.parametrize("lifo", [False, True], ids=["fifo", "lifo"])
    @pytest.mark.parametrize("thr", SCAN_THRESHOLDS, ids=REPLAY_IDS[:3])
    @pytest.mark.parametrize("cap_n", [1, 2, 16, 64])
    @pytest.mark.parametrize("start", ["mid", "full"])
    def test_finite_packets_from_start_match_loop(
        self, walk_shape, monkeypatch, start, cap_n, thr, lifo
    ):
        # from the starts test_scan_matches_loop leaves out
        slots, nb = walk_shape
        count = cap_n // 2 if start == "mid" else cap_n
        streams = sim._draw_streams(PAIR_MIXED, slots, 47 + cap_n)
        want = _kernel_fixed(
            *streams, thr.rho, thr.rho_c, thr.rho_d, cap_n, BPSK.phi, BPSK.eta, lifo, count, nb
        )
        for block in (sim._BLOCK, 8):
            monkeypatch.setattr(sim, "_BLOCK", block)
            chunks = sim._chunks(*streams[:2], thr, cap_n, count, packets=True)
            got = sim._fixed_totals(chunks, streams, BPSK, cap_n, lifo, count, nb)
            _assert_totals_equal(got, want)

    def test_finite_bits_replay_in_full_chunks(self, monkeypatch):
        """adaptive_sim's finite buffer (8 bits, thresholds (RHO_BALANCE, 2.0,
        0.5)) over five full chunks and a partial one, against the slot loop.

        The replay steps a bit buffer in whole ``_CHUNK`` chunks and hands
        the totals quarter-chunk records.
        """
        chunk = 2048
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        slots, nb, cap = 5 * chunk + 333, 100, 8.0
        thr = SelectionThresholds(RHO_BALANCE, 2.0, 0.5)
        gs, gr, _, _ = sim._draw_streams(PAIR_MIXED, slots, 59, errors=False)
        lengths = []
        levels = sim._replay_levels
        monkeypatch.setattr(
            sim, "_replay_levels", lambda *a: lengths.append(a[2].shape[0]) or levels(*a)
        )
        records = list(sim._chunks(gs, gr, thr, cap, 0.0, packets=False))
        assert lengths == [chunk] * 5 + [333]
        assert [(lo, hi) for lo, hi, *_ in records] == [
            (lo, min(lo + chunk // 4, slots)) for lo in range(0, slots, chunk // 4)
        ]
        got = sim._adaptive_totals(iter(records), cap, 0.0, slots, nb)
        want = _kernel_adaptive(gs, gr, thr.rho, thr.rho_c, thr.rho_d, cap, 0.0, nb)
        _assert_totals_match(got, want, skip=("b_final",))
        assert got.b_final == pytest.approx(want[-1], rel=1e-9, abs=1e-12 * got.bits_in.sum())

    @pytest.mark.parametrize(
        "case, cap, per_chunk",
        [
            ("bits", math.inf, 3),
            ("bits", 8.0, 3),
            ("packets", math.inf, 3),
            ("packets", 2, 5),
            ("packets", 10, 5),
        ],
        ids=["bits", "bits-L8", "packets", "packets-L2", "packets-L10"],
    )
    def test_balance_point_repairs_in_few_rounds(self, monkeypatch, case, cap, per_chunk):
        """The slot loop's cost bounds the replay's only while the repair
        rounds per chunk stay few.

        At the balance point they were the most at risk. Finite packet
        buffers run at fixed_rate_sim's thresholds, and the 8-bit buffer is
        adaptive_sim's finite run: over seeds 53-55 at 2**19 slots, its full
        chunks took at most 3 rounds each, the bound here. Each path counts
        its own chunks: a bit chunk is ``_CHUNK`` slots, a packet chunk a
        quarter of that.
        """
        chunks, rounds = [], []
        levels = sim._replay_levels

        def counted(replay, *args):
            chunks.append(1)
            return levels(lambda *a: rounds.append(1) or replay(*a), *args)

        monkeypatch.setattr(sim, "_replay_levels", counted)
        slots = 1 << 17
        streams = sim._draw_streams(PAIR_MIXED, slots, 53)
        if case == "packets":
            rho = RHO_BALANCE_FIXED if math.isinf(cap) else 0.6
            thr = SelectionThresholds(rho, 1.2, 0.3)
            chunks_run = sim._chunks(*streams[:2], thr, cap, 0, packets=True)
            sim._fixed_totals(chunks_run, streams, BPSK, cap, False, 0, 100)
        else:
            thr = SelectionThresholds(RHO_BALANCE, 2.0, 0.5)
            chunks_run = sim._chunks(*streams[:2], thr, cap, 0.0, packets=False)
            sim._adaptive_totals(chunks_run, cap, 0.0, slots, 100)
        chunk = sim._CHUNK // 4 if case == "packets" else sim._CHUNK
        assert len(chunks) == slots // chunk
        assert len(rounds) <= per_chunk * len(chunks)
