"""Slot-level Monte Carlo: determinism, invariants, agreement with closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import analytic, cli, queueing, sim
from bufrelay.analytic import ModulationParams, SelectionThresholds
from bufrelay.sim import BufferState, SchemeConfig

from conftest import PAIR_MIXED, assert_within_sigma, make_pair, run_lifo_duality_check

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

    def test_bit_buffer_fits_the_grid(self):
        # a capacity must round to a positive multiple of 2**-20 bit, and
        # levels stay exact up to 2**32 bits
        for capacity, occupancy in ((2.0**-21, 0.0), (1e-9, 0.0), (2.0**32 + 1, 0.0),
                                    (math.inf, 2.0**32 + 1)):
            with pytest.raises(ValueError, match="buffer: bit"):
                adaptive_cfg(0.6, buffer=BufferState(capacity=capacity, occupancy=occupancy))
        adaptive_cfg(0.6, buffer=BufferState(capacity=0.6 * sim._GRID))
        adaptive_cfg(0.6, buffer=BufferState(capacity=2.0**32, occupancy=2.0**32))
        adaptive_cfg(0.6, buffer=BufferState(occupancy=2.0**32))

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
        assert out.final_occupancy == out.bits_in - out.bits_out  # grid sums are exact
        assert out.overflow_count == 0  # unbounded buffer never rejects

    def test_finite_bit_buffer_respects_capacity(self):
        out = sim.run(
            adaptive_cfg(2.0, slots=100_000, buffer=BufferState(capacity=12.0)),
            PAIR_MIXED,
        )
        assert out.final_occupancy <= 12.0
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

    @pytest.mark.parametrize("capacity", [2, 10])
    def test_finite_lifo_delay_is_the_newest_first_one(self, capacity):
        """A finite newest-first buffer's queueing delay is (L - mean
        occupancy) / arrival rate: its run agrees with the chain's
        ``lifo_equivalent_queue_delay``, not with the FIFO delay."""
        th = SelectionThresholds(rho=0.6, rho_c=1.2, rho_d=0.3)
        out = sim.run(fixed_cfg(th, capacity, slots=200_000, discipline="lifo"), PAIR_MIXED)
        q_s = analytic.lsp(PAIR_MIXED, th.rho)[0]
        q_c = analytic.lsp(PAIR_MIXED, th.rho_c)[0]
        q_d = 1.0 - analytic.lsp(PAIR_MIXED, th.rho_d)[0]
        chain = queueing.ThresholdProtocolParams(capacity, q_s, q_c, q_d)
        t_q = queueing.lifo_equivalent_queue_delay(chain)
        assert_within_sigma(out.delay.t_q, out.ci_halfwidths["t_q"], t_q, 4, f"L={capacity}")
        assert abs(out.delay.t_q - queueing.delays(chain).t_q) > 10 * out.ci_halfwidths["t_q"]

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


class TestSerErrorBars:
    """The simulated error rates' standard errors against their spread over seeds.

    fig9's symmetric case, 40 seeds of 50k slots per cell. A run adds every
    packet's error probability, so no run at a positive error rate reports a
    standard error of 0. At 30 and 50 dB 2-4 of 40 cabr runs fall outside 4
    sigma of the exact rate: there rare deep fades dominate the sum, and 100
    batch means under-read their variance (ROADMAP item 5), so only the 10 dB
    cells are held to the 4-sigma count.
    """

    @pytest.mark.parametrize("scheme", ["cabr", "cnbr"])
    @pytest.mark.parametrize("gamma_db", [10.0, 30.0, 50.0])
    def test_spread_over_seeds_matches_the_standard_error(self, gamma_db, scheme):
        case = cli.PRESETS["fig9"]["cases"][0]
        gamma = 10.0 ** (gamma_db / 10.0)
        pair = make_pair(
            gamma * case["omega_h_s"], case["mu_s"], gamma * case["omega_h_r"], case["mu_r"]
        )
        if scheme == "cabr":
            rho = analytic.rho_opt_fixed(pair)
            exact = analytic.ser_exact_cabr(pair, rho, BPSK)
            kw = {"thresholds": SelectionThresholds.uniform(rho)}
        else:
            exact, kw = analytic.ser_exact_cnbr(pair, BPSK), {}
        outs = [
            sim.run(SchemeConfig(scheme, "fixed", 50_000, seed, modulation=BPSK, **kw), pair)
            for seed in range(40)
        ]
        for k, (hop, p_exact) in enumerate(zip("sr", (exact.p_s, exact.p_r))):
            ser = np.array([out.ser_per_hop[k] for out in outs])
            se = np.array([out.ci_halfwidths[f"ser_{hop}"] for out in outs])
            assert np.all(se > 0.0), hop
            ratio = ser.std(ddof=1) / math.sqrt(np.mean(se * se))
            assert 0.75 <= ratio <= 1.33, f"{hop}: spread / rms se {ratio:.3f}"
            if gamma_db == 10.0:
                outside = np.count_nonzero(np.abs(ser - p_exact) > 4.0 * se)
                assert outside <= 1, f"{hop}: {outside} of 40 runs outside 4 sigma"


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
# iteration per slot. Bit levels move by the simulator's grid capacities.


def _kernel_adaptive(gs, gr, rho, rho_c, rho_d, cap, start_b, nb, levels=None):
    """Slot loop of an adaptive cabr run: per-batch totals in ``sim._AdaptiveTotals`` order.

    With ``levels``, an array of one entry per slot, it also stores the bit
    level before each slot there.
    """
    n_slots = gs.shape[0]
    c_s, c_r = sim._bits(gs), sim._bits(gr)
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
        if levels is not None:
            levels[n] = B
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
            cs = c_s[n]
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
            cr = c_r[n]
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


def _kernel_fixed(gs, gr, rho, rho_c, rho_d, cap_n, phi, eta, lifo, start, nb):
    """Slot loop of a fixed-rate cabr run: per-batch totals in ``sim._FixedTotals`` order.

    ``cap_n`` sizes the ring of queued arrival slots; an infinite buffer
    passes start + slots, which holds every packet the run can queue. Each
    arrival and departure adds its error probability to the error totals.
    """
    n_slots = gs.shape[0]
    batch = max(n_slots // nb, 1)
    arrivals = np.zeros(nb, np.int64)
    departures = np.zeros(nb, np.int64)
    errs_s = np.zeros(nb)
    errs_r = np.zeros(nb)
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
                errs_s[b] += pe
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
                errs_r[b] += pe
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
    c_s, c_r = sim._bits(gs), sim._bits(gr)
    B = start_b
    for n in range(gs.shape[0]):
        if gr[n] <= rho * gs[n]:
            B += c_s[n]
        else:
            B = max(B - c_r[n], 0.0)
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
    """Every total equal: bit sums (their terms lie on the simulator's grid),
    delay and occupancy sums (their terms are integers); the error sums,
    added in another order, within 1e-12 relative."""
    want = type(got)(*want)
    for name in got._fields:
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert g.dtype.kind == w.dtype.kind, name
        if name in ("errs_s", "errs_r"):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0, err_msg=name)
        else:
            assert np.array_equal(g, w), name


class TestVectorizedWalks:
    """Each reflected-walk path against its slot loop on the same streams."""

    # 0.8 sits below the balance point (1.047); 3.0 makes the walk transient
    @pytest.mark.parametrize("rho, start_b", [(0.8, 0.0), (0.8, 5.5), (3.0, 0.0)])
    def test_adaptive_matches_loop(self, walk_shape, rho, start_b):
        slots, nb = walk_shape
        gs, gr = sim._draw_streams(PAIR_MIXED, slots, 17)
        thr = SelectionThresholds.uniform(rho)
        chunks = sim._chunks(gs, gr, thr, math.inf, start_b, packets=False)
        got = sim._adaptive_totals(chunks, math.inf, start_b, slots, nb)
        want = _kernel_adaptive(gs, gr, rho, rho, rho, math.inf, start_b, nb)
        _assert_totals_equal(got, want)

    @staticmethod
    def _check_fixed(walk_shape, rho, start, lifo):
        slots, nb = walk_shape
        streams = sim._draw_streams(PAIR_MIXED, slots, 23)
        thr = SelectionThresholds.uniform(rho)
        chunks = sim._chunks(*streams, thr, math.inf, start, packets=True)
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
    def _check_occupancy(walk_shape, rho, start_b, grid=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)):
        slots, _ = walk_shape
        gs, gr = sim._draw_streams(PAIR_MIXED, slots, 29)
        grid = np.asarray(grid)
        got = sim._walk_occupancy(gs, gr, rho, start_b, grid)
        assert np.array_equal(got, _occupancy_oracle(gs, gr, rho, start_b, grid))

    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_occupancy_matches_loop(self, walk_shape, rho):
        self._check_occupancy(walk_shape, rho, 0.0)

    def test_occupancy_from_start_matches_loop(self, walk_shape):
        self._check_occupancy(walk_shape, 0.5, 6.0)

    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_occupancy_on_1000_unsorted_values_matches_loop(self, walk_shape, rho):
        # repeated values, values on the start level, and values above every level
        rng = np.random.default_rng(71)
        grid = np.concatenate((np.round(rng.uniform(0.0, 40.0, 990), 1), [6.0] * 5, [1e9] * 5))
        self._check_occupancy(walk_shape, rho, 6.0, rng.permutation(grid))

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
            chunks = sim._chunks(*streams, thr, cap_n, 0, packets=True)
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
            chunks = sim._chunks(*streams, th, 8, occupancy, packets=True)
            _assert_totals_equal(
                sim._fixed_totals(chunks, streams, BPSK, 8, lifo, occupancy, 20), want
            )
        assert runs[5].mean_occupancy != runs[0].mean_occupancy


def _count_path(rng, slots, cap, start, p_up):
    """Random count path of a buffer of cap packets: (count before each slot,
    arrival offsets, departure offsets). A slot raises the count with
    probability p_up unless the buffer is full, else lowers it unless empty."""
    before = np.empty(slots, np.int64)
    push_at, pop_at = [], []
    count = start
    for t, up in enumerate(rng.random(slots) < p_up):
        before[t] = count
        if up and count < cap:
            push_at.append(t)
            count += 1
        elif not up and count > 0:
            pop_at.append(t)
            count -= 1
    return before, np.array(push_at, np.int64), np.array(pop_at, np.int64)


def _lifo_oracle(stack, lo, before, push_at, pop_at):
    """Push/pop stack of arrival slots, slot by slot: the arrival slot of
    every departure and the stack after the last slot, bottom first."""
    held = stack.tolist()
    pushes, pops = set(push_at.tolist()), set(pop_at.tolist())
    src = []
    for t in range(before.shape[0]):
        if t in pushes:
            held.append(lo + t)
        elif t in pops:
            src.append(held.pop())
    return src, held


class TestLifoMatch:
    """``_match_lifo`` against a push/pop stack on random count paths."""

    @staticmethod
    def _check(rng, slots, cap, start, p_up):
        lo = 5000
        stack = np.sort(rng.choice(lo, start, replace=False)).astype(np.int64)
        before, push_at, pop_at = _count_path(rng, slots, cap, start, p_up)
        src, left = sim._match_lifo(stack, lo, lo + slots, push_at, pop_at, before)
        want_src, want_left = _lifo_oracle(stack, lo, before, push_at, pop_at)
        assert src.tolist() == want_src
        assert left.tolist() == want_left
        return before

    @pytest.mark.parametrize("p_up", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("fill", [0.0, 0.5, 1.0], ids=["empty", "mid", "full"])
    @pytest.mark.parametrize("cap", [1, 2, 10, 64, math.inf])
    def test_matches_stack(self, cap, fill, p_up):
        rng = np.random.default_rng([cap if cap < math.inf else 0, int(10 * fill), int(10 * p_up)])
        # an infinite buffer carries 40 packets in place of a full one
        start = int(fill * (40 if math.isinf(cap) else cap))
        for slots in (1, 7, 3000):
            self._check(rng, slots, cap, start, p_up)

    def test_levels_past_16_bits(self):
        """A transient path climbs more than 2**16 levels above its lowest
        count, so the levels are sorted at their full width."""
        rng = np.random.default_rng(67)
        before = self._check(rng, 80000, math.inf, 20, 0.95)
        assert before.max() - before.min() > 1 << 16


# whole multiples of the simulator's grid below 2**32 bits, in grid units
_UNITS = 1 << 52


@st.composite
def _grid_slot(draw, finite):
    """One slot on the grid: (level, capacity, c_s, c_r), with the ties
    B + c_s == cap and c_r == B, and empty and full levels, drawn often."""
    cap = draw(st.integers(1, _UNITS - 1)) if finite else None
    top = cap if finite else _UNITS - 1
    b = draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))
    c_s = draw(st.one_of(st.just(top - b), st.integers(0, _UNITS - 1)))
    c_r = draw(st.one_of(st.just(b), st.integers(0, _UNITS - 1)))
    return b, cap, c_s, c_r


class TestClipRule:
    """One step of ``_replay_blocks`` against the slot loop's fill and empty rule."""

    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "infinite"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), up=st.booleans(), flip_c=st.booleans(), flip_d=st.booleans())
    def test_clipped_add_is_the_slot_rule(self, finite, data, up, flip_c, flip_d):
        b, cap, c_s, c_r = (
            math.inf if u is None else u * sim._GRID for u in data.draw(_grid_slot(finite))
        )
        # the slot loop of _kernel_adaptive
        if b == 0.0:
            sel = up ^ flip_c
        elif b >= cap:
            sel = up ^ flip_d
        else:
            sel = up
        if sel:
            want = cap if c_s >= cap - b else b + c_s
        else:
            want = 0.0 if c_r >= b else b - c_r
        row = lambda v, dtype=float: np.full((1, 1), v, dtype)
        before, after, met = sim._replay_blocks(
            np.array([b]), row(up, bool), row(flip_c, bool), row(flip_d, bool),
            row(c_s + c_r), row(c_r), cap,
        )
        assert before[0, 0] == b
        assert after[0] == want
        assert met[0] == (b == 0.0 or b == cap or want == 0.0 or want == cap)


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
        gs, gr = sim._draw_streams(PAIR_MIXED, slots, 41)
        want = _kernel_adaptive(gs, gr, thr.rho, thr.rho_c, thr.rho_d, cap, start_b, nb)
        for block in (sim._BLOCK, 8):
            monkeypatch.setattr(sim, "_BLOCK", block)
            chunks = sim._chunks(gs, gr, thr, cap, start_b, packets=False)
            got = sim._adaptive_totals(chunks, cap, start_b, slots, nb)
            _assert_totals_equal(got, want)

    @pytest.mark.parametrize(
        "cap, thr",
        [(cap, REPLAY_THRESHOLDS[i]) for cap in (1.0, 8.0, 64.0) for i in (2, 3)]
        + [(math.inf, REPLAY_THRESHOLDS[3])],
        ids=[f"L{L}-{REPLAY_IDS[i]}" for L in (1, 8, 64) for i in (2, 3)] + ["inf-balance"],
    )
    def test_levels_ignore_chunk_and_block(self, monkeypatch, cap, thr):
        """Every bit level lies on the grid, so the levels and the run's
        outcome are the slot loop's, bit for bit, at any chunk and block
        length."""
        slots, seed = 100_000, 37
        gs, gr = sim._draw_streams(PAIR_MIXED, slots, seed)
        want = np.empty(slots)
        _kernel_adaptive(gs, gr, thr.rho, thr.rho_c, thr.rho_d, cap, 0.0, 100, levels=want)
        config = SchemeConfig(
            "cabr", "adaptive", slots, seed, thresholds=thr, buffer=BufferState(capacity=cap)
        )
        outcomes = set()
        for chunk in (1 << 12, 1 << 14, 1 << 16):
            for block in (16, 32, 64):
                monkeypatch.setattr(sim, "_CHUNK", chunk)
                monkeypatch.setattr(sim, "_BLOCK", block)
                records = sim._chunks(gs, gr, thr, cap, 0.0, packets=False)
                got = np.concatenate([before for *_, before, _ in records])
                assert got.tobytes() == want.tobytes(), (chunk, block)
                outcomes.add(repr(sim.run(config, PAIR_MIXED)))
        assert len(outcomes) == 1

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
            chunks = sim._chunks(*streams, thr, math.inf, start, packets=True)
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
            chunks = sim._chunks(*streams, thr, cap_n, count, packets=True)
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
        gs, gr = sim._draw_streams(PAIR_MIXED, slots, 59)
        lengths = []
        levels = sim._replay_levels
        monkeypatch.setattr(
            sim, "_replay_levels", lambda *a: lengths.append(a[1][0][0].shape[0]) or levels(*a)
        )
        records = list(sim._chunks(gs, gr, thr, cap, 0.0, packets=False))
        assert lengths == [chunk] * 5 + [333]
        assert [(lo, hi) for lo, hi, *_ in records] == [
            (lo, min(lo + chunk // 4, slots)) for lo in range(0, slots, chunk // 4)
        ]
        got = sim._adaptive_totals(iter(records), cap, 0.0, slots, nb)
        want = _kernel_adaptive(gs, gr, thr.rho, thr.rho_c, thr.rho_d, cap, 0.0, nb)
        _assert_totals_equal(got, want)

    @pytest.mark.parametrize("lifo", [False, True], ids=["fifo", "lifo"])
    def test_finite_packets_replay_in_full_chunks(self, monkeypatch, lifo):
        """fixed_rate_sim's finite buffer (10 packets, thresholds (0.6, 1.2,
        0.3)) over five full chunks and a partial one, against the slot loop.

        The replay steps a finite packet buffer in whole ``_CHUNK`` chunks,
        as it does a bit buffer, and hands the totals quarter-chunk records.
        """
        chunk = 2048
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        slots, nb, cap_n = 5 * chunk + 333, 100, 10
        thr = SelectionThresholds(0.6, 1.2, 0.3)
        streams = sim._draw_streams(PAIR_MIXED, slots, 61)
        lengths = []
        levels = sim._replay_levels
        monkeypatch.setattr(
            sim, "_replay_levels", lambda *a: lengths.append(a[1][0][0].shape[0]) or levels(*a)
        )
        records = list(sim._chunks(*streams, thr, cap_n, 0, packets=True))
        assert lengths == [chunk] * 5 + [333]
        assert [(lo, hi) for lo, hi, *_ in records] == [
            (lo, min(lo + chunk // 4, slots)) for lo in range(0, slots, chunk // 4)
        ]
        got = sim._fixed_totals(iter(records), streams, BPSK, cap_n, lifo, 0, nb)
        want = _kernel_fixed(
            *streams, thr.rho, thr.rho_c, thr.rho_d, cap_n, BPSK.phi, BPSK.eta, lifo, 0, nb
        )
        _assert_totals_equal(got, want)

    @staticmethod
    def _run_at_balance(case, cap, slots, seed, thr=None):
        """Totals of a run at the benchmark's replayed thresholds: a bit
        buffer at (RHO_BALANCE, 2.0, 0.5), a finite packet buffer at (0.6,
        1.2, 0.3) and an infinite one at (RHO_BALANCE_FIXED, 1.2, 0.3);
        ``thr`` overrides the thresholds of a bit buffer."""
        streams = sim._draw_streams(PAIR_MIXED, slots, seed)
        if case == "packets":
            rho = RHO_BALANCE_FIXED if math.isinf(cap) else 0.6
            thr = SelectionThresholds(rho, 1.2, 0.3)
            chunks = sim._chunks(*streams, thr, cap, 0, packets=True)
            sim._fixed_totals(chunks, streams, BPSK, cap, False, 0, 100)
        else:
            thr = thr or SelectionThresholds(RHO_BALANCE, 2.0, 0.5)
            chunks = sim._chunks(*streams, thr, cap, 0.0, packets=False)
            sim._adaptive_totals(chunks, cap, 0.0, slots, 100)

    @staticmethod
    def _rounds_per_chunk(monkeypatch):
        """Replays per chunk of every run that follows, the seed's included."""
        rounds = []
        levels = sim._replay_levels

        def counted(replay, *args):
            rounds.append(0)

            def replay_counted(*a):
                rounds[-1] += 1
                return replay(*a)

            return levels(replay_counted, *args)

        monkeypatch.setattr(sim, "_replay_levels", counted)
        return rounds

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
        chunks took at most 3 rounds each, the bound here. A finite buffer's
        rounds include the half-block replay that seeds its blocks. Each path
        counts its own chunks: a bit or finite packet chunk is ``_CHUNK``
        slots, an infinite packet chunk a quarter of that.
        """
        rounds = self._rounds_per_chunk(monkeypatch)
        slots = 1 << 17
        self._run_at_balance(case, cap, slots, 53)
        chunk = sim._CHUNK // 4 if case == "packets" and math.isinf(cap) else sim._CHUNK
        assert len(rounds) == slots // chunk
        assert sum(rounds) <= per_chunk * len(rounds)

    @pytest.mark.parametrize(
        "cap, thr, most",
        [
            (64.0, SCAN_THRESHOLDS[2], 14),
            (64.0, REPLAY_THRESHOLDS[3], 13),
            (256.0, SCAN_THRESHOLDS[2], 22),
            (256.0, REPLAY_THRESHOLDS[3], 29),
        ],
        ids=["bits-L64-outward", "bits-L64-balance", "bits-L256-outward", "bits-L256-balance"],
    )
    def test_large_bit_buffers_repair_in_bounded_rounds(self, monkeypatch, cap, thr, most):
        """Where a bit buffer's capacity spans many blocks' drift, a half
        block rarely meets a boundary and the chunks take many rounds. Each
        bound is the most rounds any chunk took over seeds 7, 11 and 53 at
        2**17 slots when the blocks were seeded from the clipped one-sided
        walk, so that a cheaper seed cannot slow these shapes."""
        rounds = self._rounds_per_chunk(monkeypatch)
        for seed in (7, 11, 53):
            self._run_at_balance("bits", cap, 1 << 17, seed, thr)
        assert len(rounds) == 3 * (1 << 17) // sim._CHUNK
        assert max(rounds) <= most, rounds

    @pytest.mark.parametrize(
        "case, cap, share",
        [("bits", 8.0, 0.06), ("packets", 2, 0.0015), ("packets", 10, 0.16)],
        ids=["bits-L8", "packets-L2", "packets-L10"],
    )
    def test_finite_seed_leaves_few_blocks_to_repair(self, monkeypatch, case, cap, share):
        """A finite buffer seeds each block by replaying the slots just
        before it, so the repair rounds replay few blocks a second time.

        Over seeds 53-55 at 2**18 slots the repairs replayed at most 3.2% of
        the blocks of adaptive_sim's 8-bit buffer, 0.06% at 2 packets and 7.9%
        at 10 packets (fixed_rate_sim's thresholds); each bound is about twice
        that. Seeded from the one-sided walk they replayed 83%, 39% and 24%.
        """
        blocks, repaired = [], []
        levels = sim._replay_levels

        def counted(replay, *args):
            # the seed replays half a block; the first whole-block replay
            # covers every block, and the later ones repair
            calls = []

            def replay_blocks(starts, *rows):
                if rows[0].shape[0] == sim._BLOCK:
                    calls.append(starts.shape[0])
                return replay(starts, *rows)

            out = levels(replay_blocks, *args)
            blocks.append(calls[0])
            repaired.append(sum(calls[1:]))
            return out

        monkeypatch.setattr(sim, "_replay_levels", counted)
        slots = 1 << 18
        for seed in (53, 54, 55):
            blocks.clear()
            repaired.clear()
            self._run_at_balance(case, cap, slots, seed)
            assert sum(blocks) == slots // sim._BLOCK
            assert sum(repaired) <= share * sum(blocks), (seed, sum(repaired))
