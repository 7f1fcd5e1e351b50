"""Experiment-runner plumbing: documents, outputs, exit codes, worker pool."""

import copy
import csv
import json
import math

import pytest

from bufrelay import cli
from bufrelay.specfun import ConvergenceError

PAIR = {"links": {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}}
# the same scales with the interference cap forced off (p = 0)
PAIR_P0 = {"links": {
    "s": {"lam": 4.0, "mu": 10.0, "p": 0.0}, "r": {"lam": 7.0, "mu": 3.0, "p": 0.0},
}}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_csv(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0, capsys.readouterr().err
    rows = list(csv.reader(out.splitlines()))
    return rows[0], rows[1:]


def table_doc(**overrides):
    doc = {
        "pair": PAIR,
        "metrics": ["capacity", "rate_cnbr"],
        "sweep": {"parameter": "pair.links.s.lam", "grid": [2.0, 4.0, 8.0]},
    }
    doc.update(overrides)
    return doc


class TestDocumentErrors:
    def test_requires_config_or_preset(self, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["analyze", "/nonexistent/x.json"]) == cli.EXIT_CONFIG
        assert "file not found" in capsys.readouterr().err

    def test_directory_is_config_error(self, tmp_path, capsys):
        rc, _, err = exit_cleanly(["analyze", str(tmp_path)], capsys)
        assert rc == cli.EXIT_CONFIG
        assert err == [f"config error: {tmp_path}: Is a directory"]

    def test_bytes_not_utf8_are_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"pair": "\xff"}')
        rc, _, err = exit_cleanly(["analyze", str(path)], capsys)
        assert rc == cli.EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: 'utf-8' codec")

    def test_invalid_json_names_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"pair": }')
        assert cli.main(["analyze", str(path)]) == cli.EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_top_level_must_be_mapping(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_CONFIG
        assert "top level" in capsys.readouterr().err

    def test_kind_mismatch_names_right_command(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc(kind="analyze"))
        assert cli.main(["simulate", path]) == cli.EXIT_CONFIG
        assert "run `bufrelay analyze`" in capsys.readouterr().err

    def test_sweep_command_requires_axis(self, tmp_path, capsys):
        doc = table_doc()
        del doc["sweep"]
        path = write_doc(tmp_path, doc)
        assert cli.main(["sweep", path]) == cli.EXIT_CONFIG
        assert "sweep section" in capsys.readouterr().err

    def test_unknown_metric(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc(metrics=["nope"]))
        assert cli.main(["analyze", path]) == cli.EXIT_CONFIG
        assert "unknown metric" in capsys.readouterr().err

    def test_non_monotone_grid(self, tmp_path, capsys):
        doc = table_doc()
        doc["sweep"]["grid"] = [1.0, 3.0, 2.0]
        path = write_doc(tmp_path, doc)
        assert cli.main(["analyze", path]) == cli.EXIT_CONFIG
        assert "monotone" in capsys.readouterr().err

    def test_nonpositive_workers(self, tmp_path):
        path = write_doc(tmp_path, table_doc())
        assert cli.main(["analyze", path, "--workers", "0"]) == cli.EXIT_CONFIG


class TestAnalyze:
    def test_table(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc())
        header, rows = run_csv(["analyze", path], capsys)
        assert header == ["lam", "capacity_s", "capacity_r", "rate_cnbr"]
        assert len(rows) == 3
        assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0]
        assert all(float(r[1]) > 0 for r in rows)

    def test_series_crosses_sweep(self, tmp_path, capsys):
        doc = table_doc(
            series={"parameter": "pair.links.r.lam", "values": [5.0, 7.0]}
        )
        path = write_doc(tmp_path, doc)
        header, rows = run_csv(["analyze", path], capsys)
        assert header[:2] == ["lam", "lam"] or len(rows) == 6
        assert len(rows) == 6

    def test_chain_table_is_default_for_chain_docs(self, tmp_path, capsys):
        doc = {
            "chain": {"buffer_size_L": 4, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8},
        }
        path = write_doc(tmp_path, doc)
        header, rows = run_csv(["analyze", path], capsys)
        assert "tau" in header and "t_q" in header
        assert len(rows) == 1

    def test_chain_series_accepts_inf(self, tmp_path, capsys):
        doc = {
            "chain": {"buffer_size_L": 4, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8},
            "series": {"parameter": "chain.buffer_size_L", "values": [4, "inf"]},
        }
        path = write_doc(tmp_path, doc)
        header, rows = run_csv(["analyze", path], capsys)
        assert len(rows) == 2
        last = dict(zip(header, rows[1]))
        assert math.isinf(float(last["L"]))
        assert float(last["t_o"]) == 0.0

    def test_exit_infeasible(self, tmp_path, capsys):
        doc = {
            "kind": "analyze",
            "mode": "tradeoff",
            "designs": [{"name": "mdmt", "x_star": 1.0}],
            "xi_grid": [2.0, 3.0],
            "constraint": {"t_max": 0.5, "tau_min": 0.3},
        }
        path = write_doc(tmp_path, doc)
        assert cli.main(["analyze", path]) == cli.EXIT_INFEASIBLE
        assert "t_max below one slot" in capsys.readouterr().err

    @staticmethod
    def constrained_tradeoff(tmp_path, design):
        doc = {
            "mode": "tradeoff",
            "designs": [design],
            "xi_grid": [1.2, 2.0, 5.0],
            "constraint": {"t_max": 6.0, "tau_min": 0.3},
        }
        return write_doc(tmp_path, doc)

    @pytest.mark.parametrize("design, kept", [
        ({"name": "mdmt", "x_star": 0.5}, [2.0]),
        ({"name": "ct", "tau_star": 0.4}, [2.0, 5.0]),
        # xi 1.2 gives t_total 11.09 > t_max
        ({"name": "eps", "epsilon": 0.0}, [2.0, 5.0]),
    ], ids=["mdmt", "ct", "eps"])
    def test_constraint_filters_the_xi_grid(self, tmp_path, capsys, design, kept):
        path = self.constrained_tradeoff(tmp_path, design)
        header, rows = run_csv(["analyze", path], capsys)
        assert [float(row[header.index("xi")]) for row in rows] == kept

    @pytest.mark.parametrize("design, message", [
        ({"name": "ct", "tau_star": 0.25}, "ct tau*=0.25: below the throughput floor"),
        ({"name": "mdmt", "x_star": 4.0}, "mdmt x*=4.0: t_max below the minimum delay"),
        # t_total 11.24 at xi 1.2, tau 0.29 at xi 2, t_total 17.5 at xi 5
        ({"name": "eps", "epsilon": 1.15}, "eps epsilon=1.15: no xi meets t_max and tau_min"),
    ], ids=["ct", "mdmt", "eps"])
    def test_constraint_rejects_a_design(self, tmp_path, capsys, design, message):
        path = self.constrained_tradeoff(tmp_path, design)
        assert cli.main(["analyze", path]) == cli.EXIT_INFEASIBLE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("constraint", [None, {"t_max": 6.0, "tau_min": 0.3}],
                             ids=["free", "constrained"])
    def test_design_knob_out_of_range_is_config_error(self, tmp_path, capsys, constraint):
        # 1 + 1/xi - epsilon <= 0 at xi 2 and 5
        doc = {"mode": "tradeoff", "designs": [{"name": "eps", "epsilon": 1.5}],
               "xi_grid": [1.2, 2.0, 5.0]}
        if constraint:
            doc["constraint"] = constraint
        assert cli.main(["analyze", write_doc(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "eps epsilon=1.5 at xi=2.0: epsilon too large" in capsys.readouterr().err

    def test_exit_convergence(self, tmp_path, capsys, monkeypatch):
        def blow_up(link):
            raise ConvergenceError("hop capacity", achieved=1e-3, requested=1e-9)

        monkeypatch.setattr(cli.analytic, "avg_capacity_hop", blow_up)
        path = write_doc(tmp_path, table_doc(metrics=["capacity"]))
        assert cli.main(["analyze", path]) == cli.EXIT_CONVERGENCE
        assert "convergence failure" in capsys.readouterr().err


    def test_unbracketed_balance_point_exits_convergence(self, tmp_path, capsys):
        links = {"s": {"lam": 1e-4, "mu": 1e-4}, "r": {"lam": 100.0, "mu": 1.0}}
        path = write_doc(tmp_path, {"metrics": ["rate_cabr"], "pair": {"links": links}})
        assert cli.main(["analyze", path]) == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("convergence failure: ")


    def test_unbracketed_balance_point_in_delay_target_exits_convergence(self, tmp_path, capsys):
        links = {"s": {"lam": 1e-4, "mu": 1e-4}, "r": {"lam": 100.0, "mu": 1.0}}
        doc = {"mode": "delay-compare", "pair": {"links": links}, "t_target": 7.3}
        assert cli.main(["compare", write_doc(tmp_path, doc)]) == cli.EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("convergence failure: ")

    def test_unreachable_delay_target_exits_infeasible(self, tmp_path, capsys):
        # the bound of this pair plateaus near 2.23 as rho -> 0
        links = {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}
        doc = {"mode": "delay-compare", "pair": {"links": links}, "t_target": 2.2}
        assert cli.main(["compare", write_doc(tmp_path, doc)]) == cli.EXIT_INFEASIBLE
        assert "delay target unreachable within the search range" in capsys.readouterr().err

    def test_delay_target_met_at_the_end_of_the_range(self, tmp_path, capsys):
        # the bound 1e-3 decades below this pair's balance point is 1388.76,
        # so a looser target gets that end of the range, not a bisected rho
        doc = {"mode": "delay-compare", "pair": PAIR, "t_target": 1e4}
        header, rows = run_csv(["compare", write_doc(tmp_path, doc)], capsys)
        row = {k: float(v) for k, v in zip(header, rows[0])}
        assert row["rho"] == pytest.approx(1.0441890632, rel=1e-9)
        assert row["delay_bound"] == pytest.approx(1388.7619, rel=1e-6)
        assert row["rate_cabr"] == pytest.approx(1.2746, rel=1e-4)

    def test_unbracketed_balance_point_in_delay_bound_exits_convergence(self, tmp_path, capsys):
        links = {"s": {"lam": 1e-4, "mu": 1e-4}, "r": {"lam": 100.0, "mu": 1.0}}
        doc = {"metrics": ["delay_bound"], "rho": "balance", "pair": {"links": links}}
        assert cli.main(["analyze", write_doc(tmp_path, doc)]) == cli.EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("convergence failure: ")

    def test_unbracketed_pip_inversion_in_ber_tradeoff_exits_convergence(self, tmp_path, capsys):
        # q_s at rho = 1e-30 already exceeds the target 1/(1 + xi) = 1/3
        links = {"s": {"lam": "inf", "mu": 1e31}, "r": {"lam": "inf", "mu": 1.0}}
        doc = {
            "mode": "tradeoff", "objective": "ber", "xi_grid": [2.0],
            "designs": [{"name": "eps"}], "pair": {"links": links},
        }
        assert cli.main(["analyze", write_doc(tmp_path, doc)]) == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("convergence failure: ")

    def test_infinite_lam_with_forced_p_is_config_error(self, tmp_path, capsys):
        links = {"s": {"lam": "inf", "mu": 5.0, "p": 0.0}, "r": {"lam": 7.0, "mu": 3.0}}
        doc = {"metrics": ["capacity"], "pair": {"links": links}}
        assert cli.main(["analyze", write_doc(tmp_path, doc)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: pair.links.s: infinite lam requires p = 1"]

    def test_unsamplable_forced_p_in_run_is_config_error(self, tmp_path, capsys):
        links = {"s": {"lam": 4.0, "mu": 5.0, "p": 0.5}, "r": {"lam": 7.0, "mu": 3.0}}
        doc = {
            "mode": "run", "scheme": "cabr", "rho": 0.8, "slots": 100,
            "pair": {"links": links},
        }
        assert cli.main(["simulate", write_doc(tmp_path, doc)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: pair: ")
        assert "cannot be sampled" in err[0]

    def test_non_string_metric_is_config_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc(metrics=[["capacity"]]))
        assert cli.main(["analyze", path]) == cli.EXIT_CONFIG
        assert "unknown metric" in capsys.readouterr().err


def exit_cleanly(argv, capsys):
    """main's exit code and stderr lines, checked to be a documented exit with
    at most one stderr line; an exception escaping main is the traceback the
    CLI must never print."""
    rc = cli.main(argv)
    out = capsys.readouterr()
    err = out.err.splitlines()
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONVERGENCE, cli.EXIT_INFEASIBLE)
    assert len(err) <= 1 and not any("Traceback" in line for line in err)
    return rc, out.out, err


class TestOneSidedThresholds:
    """Thresholds 14 decades from the balance point select one hop almost
    always; no metric may fail there with a traceback."""

    @pytest.mark.parametrize("rho", [1e-14, 1e14])
    @pytest.mark.parametrize("pair", [PAIR, PAIR_P0], ids=["mixed", "p0"])
    @pytest.mark.parametrize("metric", sorted(cli._METRICS))
    def test_every_metric_exits_cleanly(self, tmp_path, capsys, metric, pair, rho):
        doc = {"metrics": [metric], "rho": rho, "pair": pair, "modulation": {"eta": 2.0}}
        exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)

    @pytest.mark.parametrize("rho", [1e-14, 1e14])
    def test_conditional_ser_exits_convergence(self, tmp_path, capsys, rho):
        doc = {"metrics": ["ser_cabr"], "rho": rho, "pair": PAIR}
        rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
        assert rc == cli.EXIT_CONVERGENCE
        assert err[0].startswith("convergence failure: selection is too one-sided")

    def test_fixed_rate_run_reference_exits_convergence(self, tmp_path, capsys):
        # the simulation runs; the exact SER reference at rho_c cannot be conditioned
        doc = {
            "mode": "run", "scheme": "cabr", "rate_mode": "fixed", "rho": 0.6, "rho_c": 1e14,
            "modulation": {"eta": 2.0}, "buffer": {"capacity": 4}, "slots": 2000, "pair": PAIR,
        }
        rc, _, err = exit_cleanly(["simulate", write_doc(tmp_path, doc)], capsys)
        assert rc == cli.EXIT_CONVERGENCE
        assert err[0].startswith("convergence failure: selection is too one-sided")

    def test_delay_bound_on_the_starving_side_exits_convergence(self, tmp_path, capsys):
        # q_s = 1.4e-9 sits below the bound's 1e-7 floor, yet short of the balance point
        doc = {"metrics": ["delay_bound"], "rho": 1e-9, "pair": PAIR}
        rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
        assert rc == cli.EXIT_CONVERGENCE
        assert err[0].startswith("convergence failure: threshold too one-sided")

    def test_delay_bound_past_the_balance_point_is_nan(self, tmp_path, capsys):
        # the balance point of PAIR is rho = 1.0466
        doc = {"metrics": ["delay_bound"], "rho": 2.0, "pair": PAIR}
        rc, out, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
        assert (rc, err) == (cli.EXIT_OK, [])
        assert out.splitlines() == ["delay_bound", "nan"]


# fig3's pair with one field where d^(-alpha) or 10^(dB/10) leaves the floats
OUT_OF_RANGE_PAIRS = [
    ("geometry", "d_sp", 1e-300, "d_sp^(-alpha) is inf"),
    ("geometry", "d_sr", 1e-300, "d_sr^(-alpha) is inf"),
    ("geometry", "d_rp", 1e300, "d_rp^(-alpha) is 0"),
    ("geometry", "alpha", 1e300, "d_sp^(-alpha) is 0"),
    ("power", "gamma_max_db", 1e300, "10^(gamma_max_db/10) is inf"),
    ("power", "gamma_max_db", -1e300, "10^(gamma_max_db/10) is 0"),
    ("power", "gamma_p_db", 1e300, "10^(gamma_p_db/10) is inf"),
]


@pytest.mark.parametrize("section, field, value, message", OUT_OF_RANGE_PAIRS)
def test_out_of_range_geometry_or_power_is_config_error(
    tmp_path, capsys, section, field, value, message
):
    doc = copy.deepcopy(cli.PRESETS["fig3"])
    del doc["series"], doc["sweep"]
    doc["pair"][section][field] = value
    rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert err == [f"config error: pair: {message}, outside the positive floats"]


@pytest.mark.parametrize("gamma_max_db, message", [
    (1e300, "10^(gamma_max_db/10) is inf"),
    (-1e300, "10^(gamma_max_db/10) is 0"),
])
def test_out_of_range_ser_sweep_snr_is_config_error(tmp_path, capsys, gamma_max_db, message):
    doc = copy.deepcopy(cli.PRESETS["fig9"])
    doc["gamma_max_db_grid"] = [gamma_max_db]
    rc, _, err = exit_cleanly(["simulate", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert err == [f"config error: gamma_max_db_grid[0]: {message}, outside the positive floats"]


def test_ser_sweep_error_rate_past_one_is_config_error(tmp_path, capsys):
    doc = copy.deepcopy(cli.PRESETS["fig9"])
    doc.update(gamma_max_db_grid=[20.0], modulation={"phi": 1e300}, slots=2000)
    rc, _, err = exit_cleanly(["simulate", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert err == ["config error: modulation: p_s must lie in [0, 1]"]


@pytest.mark.parametrize("hop", ["s", "r"])
def test_ser_sweep_underflowing_cap_names_the_case(tmp_path, capsys, hop):
    # 10^(-307) * 1e-20 is 0 in floats: the cap comes from cases[].omega_h_*
    doc = copy.deepcopy(cli.PRESETS["fig9"])
    doc["cases"][1][f"omega_h_{hop}"] = 1e-20
    doc.update(gamma_max_db_grid=[20.0, -3070.0], slots=2000)
    rc, _, err = exit_cleanly(["simulate", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith(f"config error: cases[1].omega_h_{hop}: ")
    assert "underflows to 0 at gamma_max_db -3070.0" in err[0]


def test_chain_buffer_past_the_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # a buffer the memory cannot hold raises MemoryError from the allocation;
    # the test raises it without allocating
    def no_memory(chain):
        raise MemoryError("Unable to allocate 80.0 GiB for an array")

    monkeypatch.setattr(cli.queueing, "steady_state", no_memory)
    doc = {"chain": {"buffer_size_L": 10_000_000_000, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8}}
    rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert err == ["config error: chain: Unable to allocate 80.0 GiB for an array"]


def test_chain_buffer_past_any_array_is_config_error(tmp_path, capsys):
    doc = {"chain": {"buffer_size_L": 1e300, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8}}
    rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
    assert rc == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error: chain: ")


@pytest.mark.parametrize("field, message", [("lam", None), ("mu", "must be finite")])
def test_integer_past_the_floats(tmp_path, capsys, field, message):
    # 10**400 is a JSON integer no float holds: an infinite lam, a bad mu
    links = copy.deepcopy(PAIR["links"])
    links["s"][field] = 10**400
    doc = {"metrics": ["capacity"], "pair": {"links": links}}
    rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
    if message is None:
        assert (rc, err) == (cli.EXIT_OK, [])
    else:
        assert err == [f"config error: pair.links.s.{field}: {message}"]


def run_stdout(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


class TestDocumentForms:
    """Documented document keys, each against an equivalent form."""

    def test_chain_drift_form_equals_probability_form(self, tmp_path, capsys):
        # q = 1 / (1 + xi): 0.4, 0.8 and 0.5 are exact for xi 1.5, 0.25 and 1
        outs = [
            run_stdout(["analyze", write_doc(tmp_path, {
                "mode": "chain-table",
                "chain": {"buffer_size_L": 4, **chain},
                "series": {"parameter": "chain.buffer_size_L", "values": [4, 8, "inf"]},
            })], capsys)
            for chain in (
                {"xi": 1.5, "xi_c": 0.25, "xi_d": 1.0},
                {"q_s": 0.4, "q_c": 0.8, "q_d": 0.5},
            )
        ]
        assert outs[0] == outs[1]

    def test_fixed_opt_threshold_balances_the_selection(self, tmp_path, capsys):
        doc = {"metrics": ["lsp"], "rho": "fixed-opt", "pair": PAIR}
        header, rows = run_csv(["analyze", write_doc(tmp_path, doc)], capsys)
        row = {k: float(v) for k, v in zip(header, rows[0])}
        assert abs(row["q_s"] - 0.5) <= 1e-9
        assert abs(row["q_r"] - 0.5) <= 1e-9

    def test_fading_scales_equal_the_derived_links(self, tmp_path, capsys):
        # gamma_max 1000, gamma_p 10 and unit interference distances give
        # lam = 1000 omega_h and mu = 10 omega_h
        derived = {
            "geometry": {"d_sp": 1.0, "d_rp": 1.0},
            "power": {"gamma_max_db": 30.0, "gamma_p_db": 10.0},
        }
        links = {"s": {"lam": 500.0, "mu": 5.0}, "r": {"lam": 250.0, "mu": 2.5}}
        metrics = ["capacity", "rate_cabr", "rate_cnbr", "lsp"]
        outs = [
            run_stdout(["analyze", write_doc(tmp_path, {
                "metrics": metrics, "rho": 0.8, "pair": pair,
            })], capsys)
            for pair in (
                {**derived, "omega_h_s": 0.5, "omega_h_r": 0.25},
                {"links": links},
                derived,
            )
        ]
        assert outs[0] == outs[1] != outs[2]

    def test_ser_sweep_scheme_subset(self, tmp_path, capsys):
        doc = {
            "mode": "ser-sweep",
            "cases": [{"name": "symmetric", "omega_h_r": 0.5787, "mu_s": 156.25, "mu_r": 156.25}],
            "gamma_max_db_grid": [20.0, 30.0],
            "modulation": {"eta": 2.0, "phi": 1.0, "rate_R": 1.0},
            "threshold_buffer_sizes": [2],
            "slots": 2000,
            "seed": 9,
        }
        header, both = run_csv(["simulate", write_doc(tmp_path, doc)], capsys)
        _, cnbr = run_csv(["simulate", write_doc(tmp_path, {**doc, "schemes": ["cnbr"]})], capsys)
        assert [row[header.index("scheme")] for row in cnbr] == ["cnbr", "cnbr"]
        # the analytic columns equal the default document's cnbr rows; the
        # simulated ones do not, since each point's seed follows its index
        analytic_cols = [
            i for i, col in enumerate(header) if not col.endswith(("_sim", "_se"))
        ]
        want = [row for row in both if row[header.index("scheme")] == "cnbr"]
        assert [[r[i] for i in analytic_cols] for r in cnbr] == [
            [r[i] for i in analytic_cols] for r in want
        ]
        sim_col = header.index("ser_s_sim")
        assert [r[sim_col] for r in cnbr] != [r[sim_col] for r in want]

    @pytest.mark.parametrize("sizes", [3, 3.5])
    def test_ser_sweep_buffer_sizes_must_be_a_list(self, tmp_path, capsys, sizes):
        doc = {
            "mode": "ser-sweep",
            "cases": [{"name": "symmetric", "mu_s": 156.25, "mu_r": 156.25}],
            "gamma_max_db_grid": [20.0],
            "threshold_buffer_sizes": sizes,
        }
        rc, _, err = exit_cleanly(["simulate", write_doc(tmp_path, doc)], capsys)
        assert rc == cli.EXIT_CONFIG
        assert err == ["config error: threshold_buffer_sizes: list of integers"]

    @pytest.mark.parametrize("taus", [0.3, {"a": 0.3}])
    def test_tradeoff_bound_tau_grid_must_be_a_list(self, tmp_path, capsys, taus):
        doc = {
            "mode": "tradeoff",
            "xi_grid": [2.0],
            "designs": [{"name": "ct", "tau_star": 0.4}],
            "bound_tau_grid": taus,
        }
        rc, _, err = exit_cleanly(["analyze", write_doc(tmp_path, doc)], capsys)
        assert rc == cli.EXIT_CONFIG
        assert err == ["config error: bound_tau_grid: list of numbers"]
        rc, out, _ = exit_cleanly(["analyze", write_doc(tmp_path, {**doc, "bound_tau_grid": []})],
                                  capsys)
        assert rc == cli.EXIT_OK and len(out.splitlines()) == 2


class TestOutputs:
    def test_json_format(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc())
        rc = cli.main(["analyze", path, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "lam"
        assert len(payload["rows"]) == 3

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, table_doc())
        out_path = tmp_path / "table.csv"
        assert cli.main(["analyze", path, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(["analyze", path]) == 0
        # bytes, not read_text: CSV rows end in \r\n which text mode folds
        assert out_path.read_bytes().decode() == capsys.readouterr().out

    def test_preset_with_overlay(self, tmp_path, capsys):
        overlay = {
            "sweep": {"parameter": "pair.geometry.d_sp", "grid": [1.0, 2.0]},
            "series": {"parameter": "pair.geometry.d_rp", "values": [2.0]},
        }
        path = write_doc(tmp_path, overlay)
        header, rows = run_csv(["analyze", path, "--preset", "fig4"], capsys)
        assert len(rows) == 2
        balanced = dict(zip(header, rows[1]))
        # symmetric interferer distances put the balance threshold at one
        assert float(balanced["log2_rho_balance"]) == pytest.approx(0.0, abs=1e-9)


class TestSimulateDeterminism:
    def simulate_doc(self):
        return {
            "kind": "simulate",
            "pair": PAIR,
            "scheme": "cabr",
            "rate_mode": "adaptive",
            "rho": 0.8,
            "slots": 4000,
            "seed": 7,
            "sweep": {"parameter": "rho", "grid": [0.6, 0.9]},
        }

    def test_bytes_stable_across_workers(self, tmp_path):
        path = write_doc(tmp_path, self.simulate_doc())
        outs = []
        for i, workers in enumerate((1, 1, 2)):
            out_path = tmp_path / f"run{i}.csv"
            rc = cli.main(
                ["simulate", path, "--out", str(out_path), "--workers", str(workers)]
            )
            assert rc == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_closed_form_bytes_stable_across_workers(self, tmp_path):
        # the pool computes each integral once per point, the serial loop
        # once per command; the bytes must not tell them apart
        doc = {
            "mode": "delay-compare",
            "pair": PAIR,
            "t_target": 7.3,
            "sweep": {"parameter": "pair.links.s.lam", "grid": [4.0, 8.0]},
        }
        path = write_doc(tmp_path, doc)
        outs = []
        for i, workers in enumerate((1, 1, 2)):
            out_path = tmp_path / f"run{i}.csv"
            rc = cli.main(["compare", path, "--out", str(out_path), "--workers", str(workers)])
            assert rc == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_pool_is_capped_at_the_point_count(self, tmp_path, capsys, monkeypatch):
        # a process pool forks all its workers on the first submit, so the
        # worker count must not reach it above the point count; the fake
        # records the size it is asked for and maps serially, starting no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        path = write_doc(tmp_path, table_doc())
        _, serial = run_csv(["analyze", path], capsys)
        _, pooled = run_csv(["analyze", path, "--workers", "1000000"], capsys)
        assert sizes == [3]
        assert pooled == serial

    def test_seed_and_slots_overrides(self, tmp_path, capsys):
        path = write_doc(tmp_path, self.simulate_doc())
        header, rows = run_csv(
            ["simulate", path, "--seed", "9", "--slots", "2000"], capsys
        )
        first = dict(zip(header, rows[0]))
        assert first["slots"] == "2000"
        header2, rows2 = run_csv(
            ["simulate", path, "--seed", "11", "--slots", "2000"], capsys
        )
        assert rows[0] != rows2[0]  # reseeding moves the estimates


class TestPresetSmoke:
    def test_fig4_runs(self, tmp_path):
        out_path = tmp_path / "fig4.csv"
        assert cli.main(["analyze", "--preset", "fig4", "--out", str(out_path)]) == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert len(rows) > 1

    def test_preset_names_are_stable(self):
        assert sorted(cli.PRESETS) == [
            "fig10", "fig11", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9",
        ]
