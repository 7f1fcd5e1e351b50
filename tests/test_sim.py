"""Slot-level Monte Carlo: determinism, invariants, agreement with closed forms."""

import math

import numpy as np
import pytest

from bufrelay import analytic, queueing, sim
from bufrelay.analytic import ModulationParams, SelectionThresholds
from bufrelay.sim import BufferState, SchemeConfig

from conftest import PAIR_MIXED, assert_within_sigma

BPSK = ModulationParams(eta=2.0, phi=1.0)


def adaptive_cfg(rho, slots=200_000, seed=42, **kw):
    return SchemeConfig(
        "cabr", "adaptive", slots, seed,
        thresholds=SelectionThresholds.uniform(rho), **kw,
    )


def fixed_cfg(th, capacity, slots=300_000, seed=5, discipline="fifo"):
    return SchemeConfig(
        "cabr", "fixed", slots, seed,
        thresholds=th, modulation=BPSK,
        buffer=BufferState(discipline=discipline, capacity=capacity, mode="packet"),
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
                buffer=BufferState(capacity=4, mode="packet"),
            )

    def test_buffer_mode_must_match(self):
        with pytest.raises(ValueError):
            SchemeConfig(
                "cnbr", "adaptive", 100, 1,
                buffer=BufferState(capacity=4, mode="packet"),
            )

    def test_buffer_state(self):
        with pytest.raises(ValueError):
            BufferState(discipline="rand")
        with pytest.raises(ValueError):
            BufferState(capacity=0.0)
        with pytest.raises(ValueError):
            BufferState(capacity=2.5, mode="packet")
        with pytest.raises(ValueError):
            BufferState(capacity=2.0, occupancy=3.0)
        BufferState(capacity=2.5, mode="bit")  # fractional bits are fine


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
        rep = sim.run_lifo_duality_check(
            fixed_cfg(th, 6, slots=150_000), PAIR_MIXED
        )
        for key, diff in rep.differences.items():
            assert diff <= 4.0 * rep.sigmas[key] + 1e-12, key

    def test_symmetric_pair_is_self_dual(self):
        pair = analytic.HopPair(PAIR_MIXED.s, PAIR_MIXED.s)
        rep = sim.run_lifo_duality_check(
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

    def test_monotone_and_reproducible(self):
        grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        cfg = adaptive_cfg(0.3, slots=200_000, seed=11)
        probs = sim.overflow_probability(cfg, PAIR_MIXED, grid)
        assert np.all(probs[:-1] >= probs[1:])
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        again = sim.overflow_probability(cfg, PAIR_MIXED, grid)
        assert np.array_equal(probs, again)
        assert probs[0] > probs[-1] > 0.0


def _occupancy_oracle(gs, gr, rho, l_grid):
    """Slot loop counting end-of-slot bit levels above each L (empty start, no cap)."""
    counts = np.zeros(l_grid.shape[0], np.int64)
    B = 0.0
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
        got = sim._walk_adaptive(gs, gr, rho, start_b, nb)
        want = sim._kernel_adaptive(gs, gr, rho, rho, rho, math.inf, start_b, nb)
        _assert_totals_match(got, want, skip=("b_final",))
        # the end level carries the rounding of every bit moved
        bits_in = got.bits_in.sum()
        assert got.b_final == pytest.approx(want[-1], rel=1e-9, abs=1e-12 * bits_in)

    @pytest.mark.parametrize("rho", [0.6, 3.0])
    def test_fixed_fifo_matches_loop(self, walk_shape, rho):
        slots, nb = walk_shape
        gs, gr, e_s, e_r = sim._draw_streams(PAIR_MIXED, slots, 23)
        got = sim._walk_fixed_fifo(gs, gr, e_s, e_r, rho, BPSK, nb)
        want = sim._kernel_fixed(
            gs, gr, e_s, e_r, rho, rho, rho, slots, BPSK.phi, BPSK.eta, False, nb
        )
        _assert_totals_match(got, want)

    @pytest.mark.parametrize("rho", [0.5, 3.0])
    def test_occupancy_matches_loop(self, walk_shape, rho):
        slots, _ = walk_shape
        gs, gr, _, _ = sim._draw_streams(PAIR_MIXED, slots, 29, errors=False)
        grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
        got = sim._walk_occupancy(gs, gr, rho, grid)
        assert np.array_equal(got, _occupancy_oracle(gs, gr, rho, grid))

    def test_error_draws_do_not_shift_snr_streams(self):
        with_errors = sim._draw_streams(PAIR_MIXED, 5000, 3)
        without = sim._draw_streams(PAIR_MIXED, 5000, 3, errors=False)
        assert np.array_equal(with_errors[0], without[0])
        assert np.array_equal(with_errors[1], without[1])
        assert without[2] is None and without[3] is None

    @pytest.mark.parametrize(
        "rate_mode, thresholds, buffer, walks",
        [
            ("adaptive", SelectionThresholds.uniform(0.8), BufferState(), True),
            ("adaptive", SelectionThresholds(0.8, 2.0, 0.8), BufferState(), False),
            ("adaptive", SelectionThresholds.uniform(0.8), BufferState(capacity=8.0), False),
            ("fixed", SelectionThresholds.uniform(0.6), BufferState(mode="packet"), True),
            (
                "fixed",
                SelectionThresholds.uniform(0.6),
                BufferState(discipline="lifo", mode="packet"),
                False,
            ),
            ("fixed", SelectionThresholds(0.6, 1.2, 0.6), BufferState(mode="packet"), False),
            ("fixed", SelectionThresholds.uniform(0.6), BufferState(capacity=8, mode="packet"), False),
        ],
    )
    def test_path_follows_buffer_and_thresholds(
        self, monkeypatch, rate_mode, thresholds, buffer, walks
    ):
        calls = []
        for name in ("_walk_adaptive", "_walk_fixed_fifo", "_kernel_adaptive", "_kernel_fixed"):
            inner = getattr(sim, name)
            monkeypatch.setattr(
                sim, name, lambda *a, _f=inner, _n=name: calls.append(_n) or _f(*a)
            )
        config = SchemeConfig(
            "cabr", rate_mode, 2000, 1,
            thresholds=thresholds, modulation=BPSK, buffer=buffer,
        )
        sim.run(config, PAIR_MIXED)
        assert len(calls) == 1 and calls[0].startswith("_walk") == walks
