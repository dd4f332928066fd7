"""Command-line interface: flags, config files, emission, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnqueue import cli
from sdnqueue.analytic import ChainModel, ControllerParams, NodeParams, rate_from_us, solve_chain
from sdnqueue.dimensioning import SWEEP_OUTPUTS, SWEEP_VARIABLES, SweepSpec
from sdnqueue.simulate import SimConfig
from sdnqueue import validation

MU_L = rate_from_us(9.8)
MU_C = rate_from_us(240.0)

NODE_FLAGS = ["--lam", "2000", "--q-nf", "0.5",
              "--mu-switch-us", "9.8", "--mu-controller-us", "240"]

# Infinite arrival and switch rates: both loads are NaN
INF_FLAGS = ["--lam", "inf", "--mu-switch", "inf", "--q-nf", "0",
             "--mu-controller", "1000"]

# A valid config document and, per command, the sections it reads from one
NODE_SECTION = {"lambda": 2000.0, "q_nf": 0.5, "mu_switch_us": 9.8}
CONFIG = {"node": NODE_SECTION,
          "chain": {"nodes": [NODE_SECTION, NODE_SECTION]},
          "controller": {"mu_controller_us": 240.0},
          "sim": {"seed": 3, "packets_per_replication": 10000, "replications": 2,
                  "warmup_fraction": 0.1},
          "sweep": {"variable": "q_nf", "grid": [0.2, 0.5], "outputs": ["analytic_mean"],
                    "deadline": 5e-4},
          "output": {"format": "csv"}}
COMMAND_SECTIONS = {"analyze": ("node", "controller"),
                    "simulate": ("node", "controller", "sim"),
                    "sweep": ("node", "controller", "sim", "sweep", "output"),
                    "chain": ("chain", "controller")}


def config_for(command, section, key, value):
    """``command``'s sections of CONFIG with ``section``'s ``key`` set to
    ``value``; a chain's key is set in its second node."""
    doc = {name: dict(CONFIG[name]) for name in COMMAND_SECTIONS[command]}
    if section == "chain":
        doc["chain"] = {"nodes": [NODE_SECTION, {**NODE_SECTION, key: value}]}
    else:
        doc[section][key] = value
    return doc


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_stable_report(self, capsys):
        rc = cli.main(["analyze"] + NODE_FLAGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "gamma_switch      3000.000000" in out
        assert "q_jack            0.333333333333" in out
        assert "verdict: stable" in out
        # both mean forms shown with their difference as a sanity line
        assert "network form" in out and "path form" in out and "difference" in out

    def test_unstable_exit_code_and_verdict(self, capsys):
        rc = cli.main(["analyze", "--lam", "30000", "--q-nf", "0.2",
                       "--mu-switch-us", "9.8", "--mu-controller-us", "240"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "verdict: unstable: controller" in out

    def test_switch_saturation_verdict(self, capsys):
        rc = cli.main(["analyze", "--lam", "90000", "--q-nf", "0.2",
                       "--mu-switch-us", "9.8", "--mu-controller", "1e9"])
        assert rc == 2
        assert "unstable: switch" in capsys.readouterr().out

    def test_nan_load_verdict_names_stations(self, capsys):
        rc = cli.main(["analyze"] + INF_FLAGS)
        assert rc == 2
        assert "verdict: unstable: switch, controller" in capsys.readouterr().out

    def test_missing_field_named(self, capsys):
        rc = cli.main(["analyze", "--lam", "2000", "--q-nf", "0.5",
                       "--mu-controller-us", "240"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "mu_switch" in err

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = cli.main(["analyze"] + NODE_FLAGS + ["--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert "gamma_switch" in header and "verdict" in header
        assert len(rows) == 1


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"node": {"lambda": 2000.0, "q_nf": 0.5, "mu_switch_us": 9.8},
               "controller": {"mu_controller_us": 240.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["analyze", "--config", str(path), "--q-nf", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "q_nf              1.0" in out  # flag wins over file

    def test_ambiguous_rate_units_rejected(self, tmp_path, capsys):
        cfg = {"node": {"lambda": 2000.0, "q_nf": 0.5,
                        "mu_switch": 102040.0, "mu_switch_us": 9.8},
               "controller": {"mu_controller_us": 240.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["analyze", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "mu_switch" in err and "mu_switch_us" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"node": {"lambda": 1.0, "q_nf": 0.1,
                                             "mu_switch_us": 9.8, "typo_key": 3},
                                    "controller": {"mu_controller_us": 240.0}}))
        rc = cli.main(["analyze", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "typo_key" in err

    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["no-such-command"]) == 1
        assert cli.main(["figure", "fig9"]) == 1
        capsys.readouterr()

    def test_env_seed_override(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "999")
        rc = cli.main(["simulate"] + NODE_FLAGS + ["--packets", "10000",
                                                   "--replications", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 999" in out

    def test_bad_env_seed_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        rc = cli.main(["simulate"] + NODE_FLAGS + ["--packets", "10000",
                                                   "--replications", "2"])
        assert rc == 1
        capsys.readouterr()


class TestRunConfigRoundTrip:
    def test_node_config_round_trips(self):
        cfg = cli.RunConfig(
            node=NodeParams(2000.0, MU_L, 0.5), chain=None,
            controller=ControllerParams(MU_C),
            sim=SimConfig(seed=7, packets_per_replication=20_000, replications=3,
                          warmup_fraction=0.2),
            sweep=None, output_path="out.csv", output_format="csv")
        again = cli.runconfig_from_json(cli.runconfig_to_json(cfg))
        assert again == cfg

    def test_chain_and_sweep_round_trip(self):
        controller = ControllerParams(MU_C)
        node = NodeParams(1.0, MU_L, 0.5)
        sim = SimConfig()
        cfg = cli.RunConfig(
            node=node, chain=None, controller=controller, sim=sim,
            sweep=SweepSpec(variable="rho_controller", grid=(0.1, 0.5, 0.9),
                            node=node, controller=controller,
                            outputs=("analytic_mean", "deadline_prob"),
                            deadline=2e-4, sim=sim),
            output_path=None, output_format="json")
        assert cli.runconfig_from_json(cli.runconfig_to_json(cfg)) == cfg
        chain_cfg = cli.RunConfig(
            node=None,
            chain=ChainModel(nodes=(NodeParams(100.0, MU_L, 0.1),
                                    NodeParams(50.0, MU_L, 1.0)),
                             controller=controller),
            controller=controller, sim=sim, sweep=None,
            output_path="x.json", output_format="json")
        assert cli.runconfig_from_json(cli.runconfig_to_json(chain_cfg)) == chain_cfg


class TestDistributionCmd:
    def test_table_monotone_ccdf(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        rc = cli.main(["distribution"] + NODE_FLAGS + ["--points", "50",
                                                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "pdf", "ccdf"]
        ccdfs = [float(r[2]) for r in rows]
        assert ccdfs[0] == 1.0
        assert all(b <= a for a, b in zip(ccdfs, ccdfs[1:]))

    def test_quantile_table_and_deadline_line(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        rc = cli.main(["distribution"] + NODE_FLAGS +
                      ["--quantiles", "0.5,0.9", "--deadline-us", "500",
                       "--output", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "P(sojourn <= 500 us)" in printed
        header, rows = read_csv(out)
        assert header == ["p", "quantile"]
        assert float(rows[0][1]) < float(rows[1][1])

    def test_deadline_at_infinity(self, capsys):
        rc = cli.main(["distribution"] + NODE_FLAGS + ["--deadline-us", "inf"])
        assert rc == 0
        assert "P(sojourn <= inf us) = 1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("t_max, points", [(1e308, 3), (1.7e308, 1000)])
    def test_time_grid_near_the_float_range(self, tmp_path, capsys, t_max, points):
        # t_max * k overflows before it is divided; the grid still ends at t_max
        out = tmp_path / "dist.csv"
        rc = cli.main(["distribution"] + NODE_FLAGS + ["--t-max", repr(t_max),
                                                       "--points", str(points),
                                                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        ts = [float(r[0]) for r in read_csv(out)[1]]
        assert len(ts) == points and ts[0] == 0.0 and ts[-1] == t_max
        assert all(a < b for a, b in zip(ts, ts[1:]))
        if points == 3:
            assert ts[1] == t_max / 2.0

    def test_unstable_exit_two(self, capsys):
        rc = cli.main(["distribution", "--lam", "30000", "--q-nf", "0.5",
                       "--mu-switch-us", "9.8", "--mu-controller-us", "240"])
        assert rc == 2
        assert "unstable" in capsys.readouterr().err

    def test_nan_load_exit_two(self, capsys):
        # no table of blank cells: the NaN loads are saturated stations
        rc = cli.main(["distribution"] + INF_FLAGS)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "error: unstable: switch, controller" in err


class TestSimulateCmd:
    def test_csv_layout_and_determinism(self, tmp_path, capsys):
        args = ["simulate"] + NODE_FLAGS + ["--packets", "10000",
                                            "--replications", "3", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == ["replication", "mean_sojourn", "ci_halfwidth",
                          "controller_visit_fraction"]
        assert [r[0] for r in rows] == ["0", "1", "2", "all"]

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        rc = cli.main(["simulate"] + NODE_FLAGS +
                      ["--packets", "10000", "--replications", "2",
                       "--format", "json", "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "replication"
        assert doc["rows"][-1]["replication"] == "all"


class TestChainCmd:
    def test_flag_built_chain(self, tmp_path, capsys):
        out = tmp_path / "chain.csv"
        rc = cli.main(["chain", "--lam", "3000,3000", "--q-nf", "0.5,0.5",
                       "--mu-switch-us", "9.8", "--mu-controller-us", "240",
                       "--output", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "rho 0.720000" in printed
        header, rows = read_csv(out)
        assert rows[-1][0] == "aggregate"
        assert len(rows) == 3

    def test_config_built_chain_with_simulation(self, tmp_path, capsys):
        cfg = {"chain": {"nodes": [
                   {"lambda": 2000.0, "q_nf": 0.2, "mu_switch_us": 9.8},
                   {"lambda": 1000.0, "q_nf": 1.0, "mu_switch_us": 9.8}]},
               "controller": {"mu_controller_us": 240.0},
               "sim": {"seed": 3, "packets_per_replication": 10000,
                       "replications": 2}}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "chain.csv"
        rc = cli.main(["chain", "--config", str(path), "--simulate",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert "sim_mean" in header and "sim_ci" in header

    def test_nan_load_exit_two(self, capsys):
        rc = cli.main(["chain"] + INF_FLAGS)
        assert rc == 2
        assert "error: unstable: switch[0], controller" in capsys.readouterr().err

    # config nodes (2000/s, q 0.2; 1000/s, q 1.0; 9.8 us switches) under list
    # flags: each node takes each key from its flag value, else from the config
    @pytest.mark.parametrize("flags, nodes", [
        (["--q-nf", "0.5,0.5"], [(2000.0, MU_L, 0.5), (1000.0, MU_L, 0.5)]),
        (["--lam", "3000,1500"], [(3000.0, MU_L, 0.2), (1500.0, MU_L, 1.0)]),
        (["--mu-switch-us", "5"], [(2000.0, rate_from_us(5.0), 0.2),
                                   (1000.0, rate_from_us(5.0), 1.0)]),
        (["--mu-switch", "1e5,2e5", "--q-nf", "0.1,0.3"],
         [(2000.0, 1e5, 0.1), (1000.0, 2e5, 0.3)]),
    ])
    def test_list_flags_layer_over_config_nodes(self, flags, nodes, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"chain": {"nodes": [
                                        {"lambda": 2000.0, "q_nf": 0.2, "mu_switch_us": 9.8},
                                        {"lambda": 1000.0, "q_nf": 1.0, "mu_switch_us": 9.8}]},
                                    "controller": {"mu_controller_us": 240.0}}))
        out = tmp_path / "chain.csv"
        rc = cli.main(["chain", "--config", str(path), *flags, "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        solution = solve_chain(ChainModel(tuple(NodeParams(*nd) for nd in nodes),
                                          ControllerParams(MU_C)))
        header, rows = read_csv(out)
        got = [{c: row[header.index(c)] for c in ("lambda", "q_jack", "rho_switch")}
               for row in rows[:-1]]
        assert got == [{"lambda": repr(nd[0]), "q_jack": repr(r.q_jack),
                        "rho_switch": repr(r.rho_switch)}
                       for nd, r in zip(nodes, solution.nodes)]

    @pytest.mark.parametrize("flags", [["--lam", "3000"], ["--lam", "1,2,3"],
                                       ["--q-nf", "0.5"], ["--mu-switch-us", "5,5,5"]])
    def test_list_flag_must_match_the_config_nodes(self, flags, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(config_for("chain", "chain", "q_nf", 0.5)))
        assert cli.main(["chain", "--config", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + flags[0] + " must list one value per node")


class TestDimensionCmd:
    def test_single_bound(self, capsys):
        rc = cli.main(["dimension", "--q-nf", "0", "--mu-switch-us", "9.8",
                       "--mu-controller-us", "240", "--delay-bound-us", "19.6"])
        out = capsys.readouterr().out
        assert rc == 0
        # M/M/1 inversion: bound 2/mu gives mu/2
        assert f"{MU_L / 2:.3f}" in out

    def test_infinite_bound_is_the_saturation_plateau(self, capsys):
        # what every huge finite bound gives: 1e-8 below mu_c / q = 8333.33 /s
        rc = cli.main(["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8",
                       "--mu-controller-us", "240", "--delay-bound-us", "inf"])
        assert rc == 0
        assert "8333.333 packets/s" in capsys.readouterr().out

    def test_zero_load_sojourn_0(self, capsys):
        # an infinite switch rate and q_nf 0: no log grid of bounds starts above
        # w0 = 0, and a single bound admits every rate (these raised
        # ValueError and ZeroDivisionError)
        node = ["dimension", "--q-nf", "0", "--mu-switch", "inf", "--mu-controller", "1"]
        assert cli.main(node) == 1
        assert "zero-load sojourn is 0.0 s" in capsys.readouterr().err
        assert cli.main(node + ["--delay-bound-us", "5"]) == 0
        assert "max throughput for 5 us bound: inf packets/s" in capsys.readouterr().out

    def test_curve(self, tmp_path, capsys):
        out = tmp_path / "dim.csv"
        rc = cli.main(["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8",
                       "--mu-controller-us", "240", "--curve-points", "12",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["delay_bound", "throughput"]
        assert len(rows) == 12


class TestSweepCmd:
    def test_sweep_with_unstable_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--lam", "1", "--q-nf", "0.5",
                       "--mu-switch-us", "9.8", "--mu-controller-us", "240",
                       "--variable", "rho_controller", "--grid", "0.2,0.6,1.1",
                       "--outputs", "analytic_mean,naive_mean",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["rho_controller", "lambda", "analytic_mean",
                          "naive_mean", "status"]
        assert len(rows) == 3           # no silent drops
        assert rows[1][3] == ""         # uncorrected model saturated: empty cell
        assert "naive unstable" in rows[1][4]
        assert rows[2][2] == ""         # true model saturated beyond rho_c=1
        assert "analytic unstable" in rows[2][4]

    def test_deadline_prob_at_infinity(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep"] + NODE_FLAGS +
                      ["--variable", "lambda", "--grid", "1000,2000",
                       "--outputs", "deadline_prob", "--deadline", "inf", "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "deadline_prob", "status"]  # the swept lambda once
        assert [(r[1], r[2]) for r in rows] == [("1.0", "ok")] * 2

    def test_deadline_prob_past_the_float_range(self, tmp_path, capsys):
        # a_l t overflows at this deadline, where the law is 0 as at inf
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep"] + NODE_FLAGS +
                      ["--variable", "rho_controller", "--grid", "0.5",
                       "--outputs", "deadline_prob", "--deadline", "1e308", "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = read_csv(out)
        assert [(r[2], r[3]) for r in rows] == [("1.0", "ok")]

    def test_infinite_controller_rate_has_a_mean_but_no_law(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--lam", "2000", "--q-nf", "0.5", "--mu-switch-us", "9.8",
                       "--mu-controller", "inf", "--variable", "lambda", "--grid", "1000",
                       "--outputs", "analytic_mean,deadline_prob", "--deadline", "0.001",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) > 0.0
        assert rows[0][2:] == ["", "deadline_prob undefined"]

    def test_linear_grid_near_the_float_range(self, tmp_path, capsys):
        # (stop - start) * k overflows before it is divided
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep"] + NODE_FLAGS +
                      ["--variable", "mu_controller", "--grid", "1e5:1.5e308:3",
                       "--outputs", "analytic_mean,deadline_prob", "--deadline", "0.001",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [1e5, 1e5 + (1.5e308 - 1e5) / 2.0, 1.5e308]
        assert [r[-1] for r in rows] == ["ok"] * 3

    @settings(max_examples=300)
    @given(width=st.floats(-sys.float_info.max, sys.float_info.max)
           | st.sampled_from([sys.float_info.max, -sys.float_info.max, 1.7e308]),
           n=st.integers(1, 10**6), u=st.floats(0.0, 1.0) | st.just(1.0))
    def test_grid_points_round_as_in_an_unbounded_range(self, width, n, u):
        # A grid point is width * k / n as written wherever width * k is
        # finite.  Where it overflows, it is what the same two roundings give
        # with the exponent range unbounded (here: on width scaled by 2^-64),
        # held at width.
        k = round(u * n)
        got = cli._grid_offset(width, k, n)
        if math.isfinite(width * k):
            assert got == width * k / n
        else:
            scaled = math.ldexp(width, -64)
            unbounded = scaled * k / n
            assert got == (width if abs(unbounded) > abs(scaled) else math.ldexp(unbounded, 64))

    def test_grid_expression(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--lam", "1", "--q-nf", "0.5",
                       "--mu-switch-us", "9.8", "--mu-controller-us", "240",
                       "--variable", "rho_controller", "--grid", "0.1:0.9:9",
                       "--outputs", "deadline_prob", "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 9


class TestFigureCmd:
    def test_fig2_layout(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        rc = cli.main(["figure", "fig2", "--quick", "--replications", "2",
                       "--rho-grid", "0.2,0.4,0.6", "--seed", "1",
                       "--output", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["rho_c", "naive_jackson_mean", "modified_jackson_mean",
                          "sim_mean", "sim_ci", "status"]
        assert len(rows) == 3
        # q_nf=0.5 doubles the uncorrected controller load: saturated at 0.6
        assert rows[2][1] == "" and "naive unstable" in rows[2][5]
        assert rows[2][3] != ""  # simulation still reports a value

    def test_fig4_and_fig6_layouts(self, tmp_path, capsys):
        out4 = tmp_path / "fig4.csv"
        assert cli.main(["figure", "fig4", "--points", "8",
                         "--output", str(out4)]) == 0
        header4, rows4 = read_csv(out4)
        assert header4 == ["delay_bound", "throughput_qnf_0.2",
                           "throughput_qnf_0.5", "throughput_qnf_1"]
        assert len(rows4) == 8
        out6 = tmp_path / "fig6.csv"
        assert cli.main(["figure", "fig6", "--rho-grid", "0.25,0.5,0.75",
                         "--output", str(out6)]) == 0
        header6, rows6 = read_csv(out6)
        assert header6[0] == "rho_c" and header6[1].startswith("p_within_0.5ms_qnf_")
        cols = list(zip(*[[float(x) for x in r[1:4]] for r in rows6]))
        for series in cols:
            assert all(b < a for a, b in zip(series, series[1:]))
        capsys.readouterr()

    def test_fig5_layout(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert cli.main(["figure", "fig5", "--rho-grid", "0.3,0.6",
                         "--mu-c-us-set", "120,240", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["rho_c", "sojourn_mu_c_us_120", "sojourn_mu_c_us_240",
                          "status"]
        # slower controller, longer sojourn at equal load
        assert float(rows[0][2]) > float(rows[0][1])
        capsys.readouterr()

    def test_figure_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figure", "fig3", "--quick", "--replications", "2",
                "--rho-grid", "0.3,0.6", "--seed", "11"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestValidateCmd:
    def test_subset_passes(self, capsys):
        rc = cli.main(["validate", "--criteria", "1,2,7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 3

    def test_runs_without_scipy(self, tmp_path):
        # a stub scipy first on the path makes any scipy import fail
        stub = tmp_path / "scipy"
        stub.mkdir()
        (stub / "__init__.py").write_text("raise ImportError('scipy is not a runtime dependency')\n")
        src = str(Path(validation.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
        proc = subprocess.run(
            [sys.executable, "-m", "sdnqueue", "validate", "--quick", "--criteria", "1,2,3,7"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("[PASS]") == 4
        # with the real scipy importable, criterion 3 still leaves it unloaded
        # (under the stub a failed import leaves no entry in sys.modules), and
        # its quadrature rule's numpy.polynomial waits for criterion 3 to run
        check = ("import sys\n"
                 "from sdnqueue import validation\n"
                 "assert 'numpy.polynomial' not in sys.modules, 'loaded at import'\n"
                 "assert validation.run_criteria((3,))[0].passed\n"
                 "assert 'scipy' not in sys.modules, 'criterion 3 loaded scipy'\n")
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-c", check], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_unknown_criterion_rejected(self, capsys):
        assert cli.main(["validate", "--criteria", "11"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("criteria", ["1,x", "1,2.5"])
    def test_criteria_read_item_by_item(self, criteria, capsys):
        assert cli.main(["validate", "--criteria", criteria]) == 1
        item = criteria.split(",")[1]
        assert capsys.readouterr().err.startswith(
            f"error: '--criteria' must be an integer, got '{item}'")

    def test_mutation_detected(self, monkeypatch, capsys):
        # a 1% error in the feedback correction must trip the exactness gate
        from sdnqueue import analytic
        true_fn = analytic.derive_q_jack
        monkeypatch.setattr(analytic, "derive_q_jack",
                            lambda q: 1.01 * true_fn(q))
        res = validation.run_criterion(1)
        assert not res.passed
        capsys.readouterr()

    def test_validate_exit_three_on_failure(self, monkeypatch, capsys):
        from sdnqueue import analytic
        true_fn = analytic.derive_q_jack
        monkeypatch.setattr(analytic, "derive_q_jack",
                            lambda q: 1.01 * true_fn(q))
        rc = cli.main(["validate", "--criteria", "1"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "[FAIL]" in out


class TestFigureInputErrors:
    @pytest.mark.parametrize("flags", [
        ["fig5", "--q-nf", "0"],                 # no arrival rate gives controller load
        ["fig6", "--q-set", "0,0.5"],
        ["fig2", "--q-nf", "0"],
        ["fig5", "--q-nf", "1.5"],               # q_nf outside [0, 1]
        ["fig4", "--q-set", "0.5,1.5"],
        ["fig2", "--packets", "5"],              # below the simulator's minimum
        ["fig2", "--rho-grid", "0.5,0.3"],       # not increasing
        ["fig5", "--rho-grid", "0.4,0.4"],
        ["fig6", "--deadline-us", "-5"],
        ["fig4", "--mu-switch", "1e5", "--mu-switch-us", "9.8"],    # both units
        ["fig5", "--mu-controller", "4000", "--mu-controller-us", "240"],
        ["fig5", "--mu-c-us-set", "120,inf"],     # an infinite service time
    ])
    def test_usage_error_exit_one(self, flags, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        rc = cli.main(["figure", *flags, "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert not out.exists()


class TestTableInputErrors:
    @pytest.mark.parametrize("argv", [
        ["distribution"] + NODE_FLAGS + ["--points", "1"],
        ["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8",
         "--mu-controller-us", "240", "--curve-points", "1"],
        ["distribution"] + NODE_FLAGS + ["--t-max", "-0.001"],
        ["distribution"] + NODE_FLAGS + ["--t-max", "inf"],
        ["distribution"] + NODE_FLAGS + ["--t-max", "nan"],
        ["distribution"] + NODE_FLAGS + ["--t-max", "0"],
        ["distribution"] + NODE_FLAGS + ["--deadline-us", "nan"],
        ["distribution"] + NODE_FLAGS + ["--quantiles", "0.5,1.5"],
        ["distribution"] + NODE_FLAGS + ["--deadline-us", "-5"],
        ["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8",
         "--mu-controller-us", "240", "--delay-bound-us", "0"],
        ["sweep"] + NODE_FLAGS + ["--variable", "lambda", "--grid", "0,100"],
        ["analyze"] + NODE_FLAGS + ["--format", "json"],      # a format but no file
        ["simulate"] + NODE_FLAGS + ["--packets", "10000", "--replications", "2",
                                     "--format", "csv"],
        ["analyze", "--lam", "2000", "--q-nf", "0.5", "--mu-switch-us", "inf",
         "--mu-controller-us", "240"],
        ["analyze", "--lam", "1e-310", "--q-nf", "0.5", "--mu-switch-us", "9.8",
         "--mu-controller-us", "240"],     # 1/lam overflows
        ["simulate", "--lam", "1e-305", "--q-nf", "0.5", "--mu-switch-us", "9.8",
         "--mu-controller-us", "240", "--packets", "10000",
         "--replications", "2"],           # the simulated clock would overflow
        ["chain", "--lam", "1e-305,1000", "--q-nf", "0.2,1.0", "--mu-switch-us", "9.8",
         "--mu-controller-us", "240", "--simulate", "--packets", "10000",
         "--replications", "2"],
        ["simulate", "--lam", "2000", "--q-nf", "0.5", "--mu-switch", "inf",
         "--mu-controller-us", "240", "--packets", "10000",
         "--replications", "2"],           # a zero switch service time
    ])
    def test_usage_error_exit_one(self, argv, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--lam", "2000", "--q-nf", "0.5", "--mu-switch-us", "inf",
          "--mu-controller-us", "240"], "'mu_switch_us': "),
        (["figure", "fig5", "--mu-c-us-set", "120,inf"], "--mu-c-us-set: "),
    ])
    def test_service_time_error_names_the_input(self, argv, named, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: " + named) and err.rstrip().endswith("got inf")

    @pytest.mark.parametrize("argv, message", [
        (["distribution"] + NODE_FLAGS + ["--deadline-us", "-5"],
         "--deadline-us must be >= 0, got -5"),
        (["distribution"] + NODE_FLAGS + ["--deadline-us", "nan"],
         "--deadline-us must be >= 0, got nan"),
        (["figure", "fig6", "--deadline-us", "-1"], "--deadline-us must be >= 0, got -1"),
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "0.1,nan"],
         "sweep grid must be strictly increasing"),
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "nan"],
         "sweep grid must be strictly increasing"),
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid=-0.1,0.2"],
         "rho_controller must be > 0, got -0.1"),
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "0,0.2"],
         "rho_controller must be > 0, got 0.0"),
        (["figure", "fig3", "--rho-grid", "0:0.9:4"], "rho_controller must be > 0, got 0.0"),
        (["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8", "--mu-controller-us", "240",
          "--delay-bound-us", "-5"], "--delay-bound-us must be > 0, got -5"),
        (["dimension", "--q-nf", "0.5", "--mu-switch-us", "9.8", "--mu-controller-us", "240",
          "--delay-bound-us", "nan"], "--delay-bound-us must be > 0, got nan"),
        # a list whose first value is negative reaches the command's own check
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "-0.1,0.2"],
         "rho_controller must be > 0, got -0.1"),
        (["figure", "fig2", "--rho-grid", "-.1,0.2"], "rho_controller must be > 0, got -0.1"),
        (["figure", "fig4", "--q-set", "-0.5,0.5"], "q_nf must be in [0, 1], got -0.5"),
        (["figure", "fig5", "--mu-c-us-set", "-120,240"],
         "--mu-c-us-set: service time must be finite and > 0, got -120"),
        (["distribution"] + NODE_FLAGS + ["--quantiles", "-0.5,0.5"],
         "p must be in [0, 1), got -0.5"),
        (["chain", "--lam", "-5,1000", "--q-nf", "0.2,1.0", "--mu-switch-us", "9.8",
          "--mu-controller-us", "240"], "lam must be > 0, got -5"),
        # each comma list is read item by item under its own flag
        (["figure", "fig2", "--rho-grid", "0.1,x"], "'--rho-grid' must be a number, got 'x'"),
        (["figure", "fig2", "--rho-grid", "0.1:x:9"],
         "'--rho-grid stop' must be a number, got 'x'"),
        (["figure", "fig6", "--q-set", "0.2,x"], "'--q-set' must be a number, got 'x'"),
        (["figure", "fig5", "--mu-c-us-set", "120,x"],
         "'--mu-c-us-set' must be a number, got 'x'"),
        (["distribution"] + NODE_FLAGS + ["--quantiles", "0.5,x"],
         "'--quantiles' must be a number, got 'x'"),
        # two series with one column name
        (["figure", "fig6", "--q-set", "0.5,0.5"],
         "--q-set gives two series the column p_within_0.5ms_qnf_0.5"),
        (["figure", "fig4", "--q-set", "0.2,0.20"],
         "--q-set gives two series the column throughput_qnf_0.2"),
        (["figure", "fig5", "--mu-c-us-set", "240,240"],
         "--mu-c-us-set gives two series the column sojourn_mu_c_us_240"),
        # a list whose first value is -inf, -infinity or -nan, in any case
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "-inf,0.2"],
         "rho_controller must be > 0, got -inf"),
        (["figure", "fig2", "--rho-grid", "-Infinity,0.2"], "rho_controller must be > 0, got -inf"),
        (["chain", "--lam", "-nan,1000", "--q-nf", "0.2,1.0", "--mu-switch-us", "9.8",
          "--mu-controller-us", "240"], "lam must be > 0, got nan"),
        # a grid's count, spacing and log start under the flag or key given
        (["figure", "fig2", "--rho-grid", "0.1:0.9:0"], "--rho-grid count must be >= 1, got 0"),
        (["figure", "fig4", "--points", "0"], "--points must be >= 1, got 0"),
        (["figure", "fig2", "--rho-grid", "0.1:0.9:3:cubic"],
         "--rho-grid spacing must be 'linear' or 'log', got 'cubic'"),
        (["sweep"] + NODE_FLAGS + ["--variable", "rho_controller", "--grid", "0:0.9:3:log"],
         "grid start must be > 0 for a log grid, got 0.0"),
        # an infinite rate has no sojourn law
        (["distribution", "--lam", "2000", "--q-nf", "0.5", "--mu-switch-us", "9.8",
          "--mu-controller", "inf", "--quantiles", "0.5,0.99"],
         "mu_controller must be finite for the sojourn law, got inf"),
        (["distribution", "--lam", "2000", "--q-nf", "0.5", "--mu-switch", "inf",
          "--mu-controller-us", "240"], "mu_switch must be finite for the sojourn law, got inf"),
    ])
    def test_error_names_the_input_as_given(self, argv, message, tmp_path, capsys):
        # a time in us used to be reported in seconds under the library's
        # name, a rho_c grid as the lambda back-solved from it, and a list
        # whose first value is negative as a missing flag value
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: " + message)


class TestOneResolver:
    def test_dimension_rejects_unknown_node_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"node": {"q_nf": 0.5, "mu_switch_us": 9.8, "typo": 1},
                                    "controller": {"mu_controller_us": 240.0}}))
        rc = cli.main(["dimension", "--config", str(path), "--delay-bound-us", "500"])
        assert rc == 1
        assert "typo" in capsys.readouterr().err

    def test_chain_reads_config_once(self, tmp_path, monkeypatch, capsys):
        cfg = {"chain": {"nodes": [{"lambda": 2000.0, "q_nf": 0.2, "mu_switch_us": 9.8}]},
               "controller": {"mu_controller_us": 240.0},
               "sim": {"seed": 3, "packets_per_replication": 10000, "replications": 2}}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        loads = []
        load = cli._load_config
        monkeypatch.setattr(cli, "_load_config", lambda p: loads.append(p) or load(p))
        rc = cli.main(["chain", "--config", str(path), "--simulate",
                       "--output", str(tmp_path / "chain.csv")])
        capsys.readouterr()
        assert rc == 0
        assert loads == [str(path)]

    @pytest.mark.parametrize("nodes", [5, None])
    def test_chain_nodes_must_be_a_list(self, nodes, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"chain": {"nodes": nodes},
                                    "controller": {"mu_controller_us": 240.0}}))
        assert cli.main(["chain", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'chain'" in err

    def test_packets_flag_overrides_quick(self, tmp_path, monkeypatch, capsys):
        sims = []
        monkeypatch.setattr(cli, "sweep", lambda spec: sims.append(spec.sim) or [])
        for extra, packets in ((["--packets", "50000"], 50_000), ([], 20_000)):
            assert cli.main(["figure", "fig2", "--quick", *extra,
                             "--output", str(tmp_path / "fig2.csv")]) == 0
            assert [sim.packets_per_replication for sim in sims] == [packets]
            sims.clear()
        capsys.readouterr()

    @pytest.mark.parametrize("command, section, key, value, named", [
        ("analyze", "node", "lambda", [1], "lambda"),
        ("chain", "chain", "q_nf", {"p": 1}, "q_nf"),
        ("simulate", "sim", "seed", [1], "seed"),
        ("simulate", "sim", "seed", 1.5, "seed"),
        ("simulate", "sim", "packets_per_replication", 20000.5, "packets_per_replication"),
        ("simulate", "sim", "replications", 2.5, "replications"),
        ("sweep", "sweep", "grid", 5, "grid"),
        ("sweep", "sweep", "grid", {"start": [1], "stop": 1.0}, "start"),
        ("sweep", "sweep", "outputs", 5, "outputs"),
        ("sweep", "output", "path", [1], "path"),
    ])
    def test_wrong_json_type_names_the_key(self, command, section, key, value, named,
                                           tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_for(command, section, key, value)))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_whole_float_counts_read_as_integers(self, tmp_path, capsys):
        # 2e4 in a JSON file is the float 20000.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_for("simulate", "sim", "packets_per_replication",
                                              2e4)))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert "2 x 20000 packets" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--lam", "abc", "--q-nf", "0.5", "--mu-switch-us", "9.8",
          "--mu-controller-us", "240"], "'lambda' must be a number, got 'abc'"),
        (["simulate"] + NODE_FLAGS + ["--packets", "2.5"],
         "'packets_per_replication' must be an integer, got '2.5'"),
        (["chain", "--lam", "2000,1000", "--q-nf", "0.5,x", "--mu-switch-us", "9.8",
          "--mu-controller-us", "240"], "'q_nf' must be a number, got 'x'"),
        (["sweep"] + NODE_FLAGS + ["--variable", "lambda", "--grid", "1,2",
                                   "--deadline", "soon"], "'deadline' must be a number"),
        (["analyze"] + NODE_FLAGS + ["--output", "x.json", "--format", "xml"],
         "output format must be 'csv' or 'json', got 'xml'"),
    ])
    def test_flag_read_like_a_config_value(self, argv, named, capsys):
        # a flag's string is read and checked by the resolver, so its error
        # names the config key, as a bad value in a config file does
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: " + named)

    def test_document_and_flags_resolve_alike(self):
        doc = {"node": {"lambda": 2000.0, "q_nf": 0.5, "mu_switch_us": 9.8},
               "controller": {"mu_controller_us": 240.0},
               "sim": {"seed": 4, "packets_per_replication": 10000, "replications": 2}}
        from_doc = cli.runconfig_from_dict(doc)
        from_flags = cli.resolve({}, vars(cli.build_parser().parse_args(
            ["simulate"] + NODE_FLAGS + ["--seed", "4", "--packets", "10000",
                                         "--replications", "2"])),
            ("node", "controller", "sim"))
        assert from_doc == from_flags


class TestParserReuse:
    """The parser is built once per process; a parse that failed or printed
    help must leave nothing behind for the next call."""

    SEQUENCE = [["analyze"] + NODE_FLAGS,
                ["analyze", "--no-such-flag"],
                ["analyze", "--help"],
                ["analyze"] + NODE_FLAGS]

    @staticmethod
    def _fresh_process(argv):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "sdnqueue", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80"),
                              timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_one_process_match_fresh_processes(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser() is cli.build_parser()
        for argv in self.SEQUENCE:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # --help
                rc = exc.code
            out, err = capsys.readouterr()
            assert (rc, out, err) == self._fresh_process(argv), argv


# Each subcommand's option strings, so that adding or removing an option
# means editing this table
_OPTION_STRINGS = {
    "analyze": {"--lam", "--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
                "--mu-controller-us", "--output", "--format", "--config"},
    "distribution": {"--lam", "--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
                     "--mu-controller-us", "--output", "--format", "--config", "--t-max",
                     "--points", "--quantiles", "--deadline-us"},
    "simulate": {"--lam", "--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
                 "--mu-controller-us", "--seed", "--packets", "--replications",
                 "--warmup-fraction", "--output", "--format", "--config"},
    "chain": {"--lam", "--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
              "--mu-controller-us", "--simulate", "--seed", "--packets", "--replications",
              "--warmup-fraction", "--output", "--format", "--config"},
    "dimension": {"--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
                  "--mu-controller-us", "--delay-bound-us", "--curve-points", "--output",
                  "--format", "--config"},
    "sweep": {"--lam", "--q-nf", "--mu-switch", "--mu-switch-us", "--mu-controller",
              "--mu-controller-us", "--seed", "--packets", "--replications",
              "--warmup-fraction", "--variable", "--grid", "--outputs", "--deadline",
              "--output", "--format", "--config"},
    "figure": {"--mu-switch", "--mu-switch-us", "--mu-controller", "--mu-controller-us",
               "--q-nf", "--q-set", "--mu-c-us-set", "--rho-grid", "--deadline-us",
               "--points", "--seed", "--packets", "--replications", "--quick", "--output",
               "--format"},
    "validate": {"--quick", "--criteria", "--seed"},
}

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCommandLineSurface:
    def test_option_strings_pinned(self):
        subparsers = next(a.choices for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        got = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in subparsers.items()}
        assert got == _OPTION_STRINGS

    def test_dash_h_stays_help(self, capsys):
        # -inf and -nan read as values; -h, which no number looks like, does not
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sdnqueue sweep")

    def test_readme_command_lines_parse(self):
        # every sdnqueue line of README's shell blocks, parsed but not run
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True)[1:] for line in lines
                    if line.startswith("sdnqueue ")]
        assert {argv[0] for argv in commands} == set(_OPTION_STRINGS)
        for argv in commands:
            cli.build_parser().parse_args(argv)  # a CliError names an unknown flag


@st.composite
def _run_configs(draw):
    """Random valid run configurations as a config document reads back: a
    controller and a simulation plan always, a node or a chain or neither,
    and a sweep over the node."""
    rate = st.floats(1e-3, 1e9)

    def node():
        return NodeParams(draw(rate), draw(rate), draw(st.floats(0.0, 1.0)))

    controller = ControllerParams(draw(rate))
    sim = SimConfig(seed=draw(st.integers(0, 2 ** 64 - 1)),
                    packets_per_replication=draw(st.integers(10_000, 10 ** 9)),
                    replications=draw(st.integers(2, 1000)),
                    warmup_fraction=draw(st.floats(0.0, 0.5, exclude_max=True)))
    kind = draw(st.sampled_from(["none", "node", "chain", "sweep"]))
    the_node = node() if kind in ("node", "sweep") else None
    chain = (ChainModel(nodes=tuple(node() for _ in range(draw(st.integers(1, 3)))),
                        controller=controller) if kind == "chain" else None)
    spec = None
    if kind == "sweep":
        variable = draw(st.sampled_from(SWEEP_VARIABLES))
        if variable == "rho_controller" and the_node.q_nf == 0.0:
            the_node = NodeParams(the_node.lam, the_node.mu_switch, 0.5)
        outputs = (("throughput",) if variable == "delay_bound" else
                   tuple(draw(st.lists(st.sampled_from([o for o in SWEEP_OUTPUTS
                                                        if o != "throughput"]),
                                       min_size=1, max_size=3, unique=True))))
        spec = SweepSpec(variable, tuple(sorted(set(draw(st.lists(rate, min_size=1,
                                                                  max_size=5))))),
                         the_node, controller, outputs, draw(st.floats(0.0, 1.0)), sim)
    return cli.RunConfig(node=the_node, chain=chain, controller=controller, sim=sim,
                         sweep=spec, output_path=draw(st.none() | st.text(max_size=10)),
                         output_format=draw(st.sampled_from(["csv", "json"])))


_NOT_NUMBERS = st.one_of(st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                         st.booleans(), st.text(alphabet="abxyz,; ", max_size=4))


def _not_integers(lo, hi):
    """Values of a wrong type for an integer key, and numbers with a fraction
    that would be a valid count if truncated."""
    fractional = st.builds(lambda i, f: i + f, st.integers(lo, hi), st.sampled_from([0.25, 0.5]))
    return _NOT_NUMBERS | fractional | st.sampled_from([math.inf, -math.inf, math.nan])


_NOT_NAMES = st.one_of(st.integers(), st.floats(), st.booleans(),
                       st.lists(st.integers() | st.floats(), min_size=1, max_size=2))

# (section, key) -> values of a wrong type or form for that key
_BAD_VALUES = {
    **{("node", key): _NOT_NUMBERS for key in NODE_SECTION},
    **{("chain", key): _NOT_NUMBERS for key in NODE_SECTION},
    ("controller", "mu_controller_us"): _NOT_NUMBERS,
    ("sim", "seed"): _not_integers(0, 1000),
    ("sim", "packets_per_replication"): _not_integers(10_000, 20_000),
    ("sim", "replications"): _not_integers(2, 3),
    ("sim", "warmup_fraction"): _NOT_NUMBERS,
    ("sweep", "grid"): st.one_of(st.integers(), st.floats(), st.booleans(),
                                 st.lists(_NOT_NUMBERS, min_size=1, max_size=2)),
    ("sweep", "outputs"): _NOT_NAMES,
    ("sweep", "deadline"): _NOT_NUMBERS,
    ("output", "path"): st.lists(st.integers(), max_size=2) | st.dictionaries(
        st.text(max_size=2), st.integers(), max_size=1),
    ("output", "format"): _NOT_NAMES | st.text(max_size=4).filter(
        lambda s: s not in ("csv", "json")),
}
# a command that reads each section
_READER = {"node": "analyze", "chain": "chain", "controller": "analyze", "sim": "simulate",
           "sweep": "sweep", "output": "sweep"}

# simulate flags with values that parse but are out of range
_BAD_FLAGS = {
    "--lam": st.floats(max_value=0.0) | st.just(float("nan")),
    "--q-nf": st.floats().filter(lambda x: not 0.0 <= x <= 1.0),
    "--mu-controller-us": st.floats(max_value=0.0),
    "--seed": st.integers(max_value=-1) | st.integers(min_value=2 ** 64),
    "--packets": st.integers(max_value=9_999),
    "--replications": st.integers(max_value=1),
    "--warmup-fraction": st.floats().filter(lambda x: not 0.0 <= x < 0.5),
}


def _main(argv) -> tuple[int, str]:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return rc, err.getvalue()


class TestConfigProperties:
    @settings(max_examples=100)
    @given(cfg=_run_configs())
    def test_config_round_trips(self, cfg):
        assert cli.runconfig_from_json(cli.runconfig_to_json(cfg)) == cfg

    @settings(max_examples=200)
    @given(where=st.sampled_from(sorted(_BAD_VALUES)), data=st.data())
    def test_invalid_document_exits_one(self, where, data, tmp_path_factory):
        section, key = where
        command = _READER[section]
        path = tmp_path_factory.getbasetemp() / "invalid_config.json"
        path.write_text(json.dumps(config_for(command, section, key,
                                              data.draw(_BAD_VALUES[where]))))
        rc, err = _main([command, "--config", str(path)])
        assert rc == 1
        assert err.startswith("error: ")

    @settings(max_examples=100)
    @given(flag=st.sampled_from(sorted(_BAD_FLAGS)), data=st.data(),
           unparsable=st.booleans())
    def test_invalid_flag_exits_one(self, flag, data, unparsable):
        value = ("x" + data.draw(st.text(max_size=3)) if unparsable
                 else str(data.draw(_BAD_FLAGS[flag])))
        rc, err = _main(["simulate"] + NODE_FLAGS + [flag, value])
        assert rc == 1
        assert err.startswith("error: ")
