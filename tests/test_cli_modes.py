"""Per-mode output pins and the balance-solve count of table points.

Each mode's header and first row are pinned to values recorded before the
CLI modes were rebuilt around row records: strings and integers exactly,
floats to a relative 1e-12 (nan pins nan). Simulated documents run 2000 slots
with fixed seeds, so their rows are deterministic too; their error-rate
cells were re-captured when runs began adding each packet's error probability
in place of drawing its decode error, and the rate cells of adaptive cabr runs
when bit capacities moved onto a 2**-20-bit grid. No pinned document is a
benchmark request; the analytic cells of the presets and of the other
benchmark documents are checked against ``perfbench/reference.json`` in
``test_reference.py``.
"""

import math

import pytest

from bufrelay import cli

nan = math.nan
inf = math.inf

PAIR = {"links": {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}}
BPSK = {"eta": 2.0, "phi": 1.0, "rate_R": 1.0}


def _run(**fields):
    doc = {"kind": "simulate", "mode": "run", "pair": PAIR, "slots": 2000, "seed": 7}
    doc.update(fields)
    return doc


# mode (or mode variant) -> (command, document)
DOCS = {
    "table": ("analyze", {
        "mode": "table",
        "metrics": ["capacity", "rate_cabr", "lsp", "ser_cabr", "delay_bound"],
        "rho": 0.8,
        "modulation": BPSK,
        "pair": PAIR,
        "sweep": {"parameter": "pair.links.s.lam", "grid": [4.0, 8.0]},
    }),
    "chain-table": ("analyze", {
        "mode": "chain-table",
        "chain": {"buffer_size_L": 4, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8},
        "series": {"parameter": "chain.buffer_size_L", "values": [4, "inf"]},
    }),
    "tradeoff": ("analyze", {
        "mode": "tradeoff",
        "xi_grid": [2.0, 3.0],
        "designs": [{"name": "ct", "tau_star": 0.4}, {"name": "mdmt", "x_star": 0.5}],
        "bound_tau_grid": [0.3],
    }),
    "table-ratios": ("analyze", {
        "mode": "table",
        "metrics": ["rate_cabr", "rate_cnbr", "ratio_cnbr", "rate_cbr", "ratio_cbr"],
        "pair": PAIR,
    }),
    "table-delay-capped": ("analyze", {
        "mode": "table", "metrics": ["delay_capped"], "pair": PAIR, "t_target": 7.3,
    }),
    "run": ("simulate", _run(
        scheme="cabr", rate_mode="fixed", rho=0.6, rho_c=1.2, rho_d=0.3,
        modulation=BPSK, buffer={"capacity": 4},
    )),
    "run-cabr-adaptive": ("simulate", _run(scheme="cabr", rho="balance", rho_c=2.0)),
    "run-cnbr-fixed": ("simulate", _run(scheme="cnbr", rate_mode="fixed", modulation=BPSK)),
    "run-cbr-adaptive": ("simulate", _run(scheme="cbr")),
    # one document per simulator path and schedule the pins above leave out,
    # recorded before the paths were chosen in one place
    "run-cabr-adaptive-walk": ("simulate", _run(scheme="cabr", rho=0.8)),
    "run-cabr-adaptive-finite": ("simulate", _run(
        scheme="cabr", rho=0.8, rho_c=1.5, rho_d=0.5, buffer={"capacity": 8.0},
    )),
    "run-cabr-fixed-replay": ("simulate", _run(
        scheme="cabr", rate_mode="fixed", rho=0.6, rho_c=1.2, rho_d=0.3, modulation=BPSK,
    )),
    "run-cabr-fixed-replay-lifo": ("simulate", _run(
        scheme="cabr", rate_mode="fixed", rho=0.6, rho_c=1.2, rho_d=0.3, modulation=BPSK,
        buffer={"discipline": "lifo", "occupancy": 3},
    )),
    "run-cabr-fixed-walk-lifo": ("simulate", _run(
        scheme="cabr", rate_mode="fixed", rho=0.6, modulation=BPSK, buffer={"discipline": "lifo"},
    )),
    "run-cnbr-adaptive": ("simulate", _run(scheme="cnbr")),
    "run-cbr-fixed": ("simulate", _run(scheme="cbr", rate_mode="fixed", modulation=BPSK)),
    "overflow": ("simulate", {
        "mode": "overflow",
        "geometry_base": {"d_sr": 1.0, "d_rd": 1.0, "alpha": 3.0},
        "power": {"gamma_max_db": 30.0, "gamma_p_db": 10.0},
        "t_targets": [7.3],
        "geometries": [{"d_sp": 1.5, "d_rp": 2.0}],
        "l_grid": [1.0, 4.0],
        "slots": 2000,
        "seed": 20,
    }),
    "ser-sweep": ("simulate", {
        "mode": "ser-sweep",
        "cases": [{"name": "symmetric", "omega_h_r": 0.5787, "mu_s": 156.25, "mu_r": 156.25}],
        "gamma_max_db_grid": [20.0],
        "modulation": BPSK,
        "threshold_buffer_sizes": [2],
        "slots": 2000,
        "seed": 9,
    }),
}

# the columns of every run row
RUN_HEADER = [
    'scheme', 'rate_mode', 'slots', 'seed', 'rho', 'avg_rate', 'avg_rate_se', 'avg_rate_ref',
    'rate_hop_s', 'rate_hop_s_ref', 'rate_hop_r', 'rate_hop_r_ref', 'q_s', 'q_s_ref', 'q_c',
    'q_c_ref', 'q_d', 'q_d_ref', 'ser_s', 'ser_s_se', 'ser_s_ref', 'ser_r', 'ser_r_se',
    'ser_r_ref', 'tau_pps', 'tau_ref', 't_q', 't_q_ref', 't_u', 't_u_ref', 't_o', 't_o_ref',
    't_total', 't_total_ref', 'mean_occupancy', 'underflow', 'overflow', 'delay_bound',
]

# header and first row of each document, recorded before the rebuild
PINS = {
    'table': (
        [
            'lam', 'capacity_s', 'capacity_r', 'rho_balance', 'rate_cabr', 'q_s', 'q_r',
            'ser_cabr_s', 'ser_cabr_r', 'delay_bound',
        ],
        [
            4.0, 1.9121939177056027, 1.902756672176349, 1.046596167628764, 1.2756299537274787,
            0.4624593470761672, 0.5375406529238328, 0.015785572539982275, 0.017212818537758027,
            13.039904398293952,
        ],
    ),
    'chain-table': (
        [
            'buffer_size_L', 'L', 'q_s', 'q_c', 'q_d', 'xi', 'xi_c', 'xi_d', 'tau', 'pi_0',
            'pi_L', 'mean_occupancy', 't_q', 't_u', 't_o', 't_total', 'lifo_t_q',
        ],
        [
            4.0, 4.0, 0.4, 0.9, 0.8, 1.4999999999999998, 0.11111111111111108,
            0.24999999999999994, 0.48148148148148145, 0.2222222222222222, 0.07407407407407408,
            1.5185185185185186, 3.153846153846154, 0.04615384615384613, 0.030769230769230767,
            3.230769230769231, 5.153846153846153,
        ],
    ),
    'tradeoff': (
        [
            'design', 'knob', 'xi', 'xi_c', 'tau', 't_q', 't_u', 't_o', 't_total',
        ],
        [
            'ct', 0.4, 2.0, 0.9999999999999998, 0.4, 2.999999999999999, 0.4999999999999999, 0.0,
            3.499999999999999,
        ],
    ),
    'table-ratios': (
        [
            'rho_balance', 'rate_cabr', 'rate_cnbr', 'ratio_cnbr', 'rate_cbr', 'ratio_cbr',
        ],
        [
            1.046596167628764, 1.2756299537274787, 0.6317254939127847, 2.0192788893582168,
            0.9513783360881745, 1.3408229989475526,
        ],
    ),
    'table-delay-capped': (
        [
            'rho', 'delay_bound', 'rate_cabr', 'rate_cnbr', 'ratio_cnbr',
        ],
        [
            0.6244232913576464, 7.299999999276951, 1.0322736172575644, 0.6317254939127847,
            1.6340540744427816,
        ],
    ),
    'run': (
        RUN_HEADER,
        [
            'cabr', 'fixed', 2000, 16920295385781661272, 0.6, 0.416, 0.007243248336530128,
            0.4201898656183503, nan, nan, nan, nan, 0.40694789081885857, 0.3994361717277644,
            0.5431309904153354, 0.5533317098379443, 0.696969696969697, 0.736786876097602,
            0.014521471894449165, 0.0011591910333427725, 0.015935132017638708,
            0.020742766101493927, 0.001873520848940513, 0.0203590191861829, 0.416,
            0.4201898656183503, 3.3341346153846154, 3.2006961873522703, 0.34375,
            0.3361126698875951, 0.06009615384615385, 0.04376386170938309, 3.737980769230769,
            3.5805727189492487, 1.387, 286, 50, nan,
        ],
    ),
    'run-cabr-adaptive': (
        RUN_HEADER,
        [
            'cabr', 'adaptive', 2000, 16920295385781661272, 1.046596167628764,
            1.2275017170906066, 0.03290574059973543, 1.275629953017497, 1.3095637965202331,
            1.275629953017497, 1.2524393119812012, 1.27562995443746, 0.5286656519533232,
            0.5226823957162633, 0.4827586206896552, 0.6636199330721383, nan, 0.4773176042837367,
            nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
            15, 0, 2069222500.222108,
        ],
    ),
    'run-cnbr-fixed': (
        RUN_HEADER,
        [
            'cnbr', 'fixed', 2000, 16920295385781661272, nan, 0.5, nan, 0.5, nan, nan, nan, nan,
            nan, nan, nan, nan, nan, nan, 0.05053907035545715, 0.002680146150588896,
            0.05410645988406182, 0.067258054739276, 0.003244242836625501, 0.06477513888317488, 0.5,
            0.5, nan, nan, nan, nan, nan, nan, nan, nan, nan, 0, 0, nan,
        ],
    ),
    'run-cbr-adaptive': (
        RUN_HEADER,
        [
            'cbr', 'adaptive', 2000, 16920295385781661272, nan, 0.9278003961780046,
            0.0193675798984656, 0.9513783360881745, nan, nan, nan, nan, nan, nan, nan, nan, nan,
            nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
            nan, 0, 0, nan,
        ],
    ),
    'run-cabr-adaptive-walk': (
        RUN_HEADER,
        [
            'cabr', 'adaptive', 2000, 16920295385781661272, 0.8, 1.1659756836891175,
            0.033393786905177705, 1.150554661136447, 1.1709336080551147, 1.150554661136447,
            1.3858685107231141, 1.3952416715376235, 0.4716451431779899, 0.4624593470761672,
            0.4383561643835616, 0.4624593470761672, nan, 0.5375406529238328, nan, nan, nan, nan,
            nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, 123, 0,
            13.039904398293952,
        ],
    ),
    'run-cabr-adaptive-finite': (
        RUN_HEADER,
        [
            'cabr', 'adaptive', 2000, 16920295385781661272, 0.8, 0.9464028511047363,
            0.018163658330814868, 1.150554661136447, 1.1937984695434571, 1.150554661136447,
            1.355161027431488, 1.3952416715376235, 0.4671698113207547, 0.4624593470761672,
            0.5588235294117647, 0.602625680134208, 0.5767790262172284, 0.6389545731172025, nan, nan,
            nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, 180, 267,
            13.039904398293952,
        ],
    ),
    'run-cabr-fixed-replay': (
        RUN_HEADER,
        [
            'cabr', 'fixed', 2000, 16920295385781661272, 0.6, 0.4435, 0.009630942347717098,
            0.4404624354497814, nan, nan, nan, nan, 0.41023936170212766, 0.3994361717277644,
            0.5443548387096774, 0.5533317098379443, nan, 0.736786876097602, 0.013646887044185315,
            0.0011078323431369357, 0.015647613907048052, 0.019800396011834375,
            0.0017658700422445981, 0.019500757131323612, 0.4435, 0.4404624354497814,
            5.430665163472379, 4.971966646361688, 0.2547914317925592, 0.2703411676386041, 0.0, 0.0,
            5.685456595264938, 5.242307814000292, 2.4085, 226, 0, nan,
        ],
    ),
    'run-cabr-fixed-replay-lifo': (
        RUN_HEADER,
        [
            'cabr', 'fixed', 2000, 16920295385781661272, 0.6, 0.445, 0.009600610249964175,
            0.4404624354497814, nan, nan, nan, nan, 0.40981432360742703, 0.3994361717277644,
            0.5467479674796748, 0.5533317098379443, nan, 0.736786876097602, 0.013646887044185315,
            0.0011078323431369357, 0.015647613907048052, 0.01974395084247667, 0.0017673764359765383,
            0.019500757131323612, 0.445, 0.4404624354497814, 5.4224719101123595, 4.971966646361688,
            0.250561797752809, 0.2703411676386041, 0.0, 0.0, 5.6730337078651685, 5.242307814000292,
            2.4145, 223, 0, nan,
        ],
    ),
    'run-cabr-fixed-walk-lifo': (
        RUN_HEADER,
        [
            'cabr', 'fixed', 2000, 16920295385781661272, 0.6, 0.41, 0.011348474733984247,
            0.39943617172776436, nan, nan, nan, nan, 0.4117647058823529, 0.3994361717277644,
            0.40594059405940597, 0.3994361717277644, nan, 0.6005638282722356, 0.012928343665110116,
            0.0010824237867450507, 0.01446582576056377, 0.019863666845986828, 0.001825855811870772,
            0.019500757131323612, 0.41, 0.39943617172776436, 5.385365853658537, 4.971966646361688,
            0.43902439024390244, 0.5035289009367679, 0.0, 0.0, 5.82439024390244, 5.475495547298456,
            2.208, 360, 0, nan,
        ],
    ),
    'run-cnbr-adaptive': (
        RUN_HEADER,
        [
            'cnbr', 'adaptive', 2000, 16920295385781661272, nan, 0.6397975470469832,
            0.01354643895964663, 0.6317254939127847, nan, nan, nan, nan, nan, nan, nan, nan, nan,
            nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
            nan, 0, 0, nan,
        ],
    ),
    'run-cbr-fixed': (
        RUN_HEADER,
        [
            'cbr', 'fixed', 2000, 16920295385781661272, nan, 0.5, nan, 0.5, nan, nan, nan, nan, nan,
            nan, nan, nan, nan, nan, 0.05314312007957015, 0.00280660192772712, 0.05410645988406182,
            0.07133141843413751, 0.0033004545601523867, 0.06477513888317488, 0.5, 0.5, nan, nan,
            nan, nan, nan, nan, nan, nan, nan, 0, 0, nan,
        ],
    ),
    'overflow': (
        [
            't_target', 'd_sp', 'd_rp', 'rho', 'L', 'overflow_prob',
        ],
        [
            7.3, 1.5, 2.0, 1.6601810547993667, 1.0, 0.813,
        ],
    ),
    'ser-sweep': (
        [
            'case', 'gamma_max_db', 'scheme', 'rho', 'ser_s_exact', 'ser_r_exact', 'ser_s_asym',
            'ser_r_asym', 'ser_s_sim', 'ser_r_sim', 'ser_s_se', 'ser_r_se', 'ser_s_L2',
            'ser_r_L2',
        ],
        [
            'symmetric', 20.0, 'cabr', 0.6203439382183222, 4.534019142497342e-05,
            0.00011592839945701643, 4.672601226855062e-05, 0.00012142095184593806,
            3.697580708836468e-05, 0.00013513422751104757, 3.39743095246122e-05,
            0.00014230937737856676, 0.001427031470299591, 0.002242293729020381,
        ],
    ),
}


def _same(got, want):
    if isinstance(want, float):
        if math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    return type(got) is type(want) and got == want


def test_every_mode_is_pinned():
    modes = {doc.get("mode") for _, doc in DOCS.values()}
    assert modes == set(cli._MODES)


@pytest.mark.parametrize("name", sorted(PINS))
def test_header_and_first_row(name):
    kind, doc = DOCS[name]
    columns, rows = getattr(cli, f"cmd_{kind}")(doc)
    header, first = PINS[name]
    assert list(columns) == header
    assert len(rows[0]) == len(header)
    bad = [
        (col, got, want)
        for col, got, want in zip(header, rows[0], first)
        if not _same(got, want)
    ]
    assert not bad


def test_balance_point_solved_once_per_table_point(monkeypatch):
    # counted at the bisection, since repeat calls of avg_rate_cabr are memo hits
    calls = []
    bisect = cli.analytic._bisect_log10_rho

    def counted(f, what, *args, **kwargs):
        calls.append(what)
        return bisect(f, what, *args, **kwargs)

    monkeypatch.setattr(cli.analytic, "_bisect_log10_rho", counted)
    doc = {
        "metrics": ["rate_cabr", "lsp", "ser_cabr", "delay_bound"],
        "rho": "balance",
        "modulation": BPSK,
        "pair": PAIR,
        "sweep": {"parameter": "pair.links.s.lam", "grid": [2.0, 4.0, 8.0]},
    }
    _, rows = cli.cmd_analyze(doc)
    assert len(rows) == 3
    assert calls == ["the rate balance point"] * 3
