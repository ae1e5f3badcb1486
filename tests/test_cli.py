import json
from pathlib import Path

import numpy as np
import pytest

from wnsf.cli import (
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_IDENTIFICATION,
    EXIT_OK,
    EXIT_SIMULATION,
    ConfigError,
    loop_config_from,
    main,
    parse_n_grid,
    parse_orders,
)
from wnsf.crb import SpectrumModel, compute_mcr
from wnsf.estimator import ModelOrders
from wnsf.lti import BjModel
from wnsf.metrics import fit_of_models
from wnsf.simulate import DataSet, LoopConfig, generate

DEMOS = Path(__file__).resolve().parent.parent / "demos"

BENCH_CONFIG = {
    "system": {
        "F": [1.0, -0.5, 0.75],
        "L": [0.0, 1.0, 0.1],
        "C": [1.0, 0.7],
        "D": [1.0, -0.9],
    },
    "controller": {"num": [1.0], "den": [1.0]},
    "noise": {"std": 1.0},
    "experiment": {"loop_kind": "closed", "N": 1000, "seed": 0},
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestArgumentParsing:
    def test_range_syntax(self):
        assert parse_n_grid("50:300:50") == (50, 100, 150, 200, 250, 300)

    def test_two_part_range(self):
        assert parse_n_grid("3:6") == (3, 4, 5, 6)

    def test_comma_list(self):
        assert parse_n_grid("50,100,150") == (50, 100, 150)

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            parse_n_grid("300:50:50")

    def test_orders(self):
        assert parse_orders("2,2,1,1") == ModelOrders(2, 2, 1, 1)
        with pytest.raises(ConfigError):
            parse_orders("2,2,1")


class TestSimulateCommand:
    def test_writes_csv_with_expected_shape(self, tmp_path):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        out = tmp_path / "data.csv"
        assert main(["simulate", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,r,u,y"
        assert len(lines) == 1001
        assert (tmp_path / "data.csv.config.json").exists()

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", cfg, "--out", str(a)])
        main(["simulate", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", cfg, "--out", str(a)])
        main(["simulate", cfg, "--out", str(b), "--seed", "5"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_required_field(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        del doc["system"]["F"]
        cfg = _write_config(tmp_path, doc)
        code = main(["simulate", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "system.F" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["system"]["E"] = [1.0]
        cfg = _write_config(tmp_path, doc)
        assert main(["simulate", cfg, "--out",
                     str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert "system" in capsys.readouterr().err

    def test_unstable_loop_exit_code(self, tmp_path, capsys):
        doc = {
            "system": {"F": [1.0, -2.5, 2.4, -0.88], "L": [0.0, 1.0, -1.2]},
            "controller": {"num": [0.3], "den": [1.0]},
            "experiment": {"loop_kind": "closed", "N": 100, "seed": 0},
        }
        cfg = _write_config(tmp_path, doc)
        code = main(["simulate", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_SIMULATION

    def test_with_noise_column(self, tmp_path):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        out = tmp_path / "data.csv"
        main(["simulate", cfg, "--out", str(out), "--with-noise"])
        assert out.read_text().splitlines()[0] == "t,r,u,y,e"


    def test_echo_reports_noise_std_used(self, tmp_path):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["noise"] = {"snr_target": 2.0}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "data.csv"
        assert main(["simulate", cfg, "--out", str(out),
                     "--with-noise"]) == EXIT_OK
        echo = json.loads((tmp_path / "data.csv.config.json").read_text())
        e = DataSet.from_csv(out).e
        unit = dict(doc, noise={"std": 1.0})
        e_unit = generate(loop_config_from(unit)).e
        assert abs(echo["effective"]["noise_std"]
                   - np.std(e) / np.std(e_unit)) < 1e-12
        assert echo["effective"]["noise_std"] != 1.0


class TestConfigRejected:
    @pytest.mark.parametrize("section, key, value, named", [
        # removed option: the schema no longer knows it
        ("wnsf", "estimate_noise_model", True, "estimate_noise_model"),
        # snr_target sets the noise level, so std would be ignored
        ("noise", "snr_target", 2.0, "snr_target"),
    ])
    def test_exit_code(self, tmp_path, capsys, section, key, value, named):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["wnsf"] = {"orders": [2, 2, 1, 1]}
        doc[section][key] = value
        cfg = _write_config(tmp_path, doc)
        code = main(["simulate", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{section}:" in err and named in err


IDENTIFY = ["identify", "--data", "{data}", "--orders", "2,2,1,1",
            "--n-grid", "20"]

# (argv with {placeholders}, exit code, text the message must contain)
BAD_INPUTS = {
    # flags are checked by the schema rule of the config key they set
    "max_iter_0": (IDENTIFY + ["--max-iter", "0"], EXIT_CONFIG, "--max-iter"),
    "tol_negative": (IDENTIFY + ["--tol", "-1"], EXIT_CONFIG, "--tol"),
    # argparse reads these as floats; a NaN tol never stopped the iteration
    "tol_nan": (IDENTIFY + ["--tol", "nan"], EXIT_CONFIG, "--tol"),
    "tol_inf": (IDENTIFY + ["--tol", "inf"], EXIT_CONFIG, "--tol"),
    "n_grid_0": (IDENTIFY[:-1] + ["0"], EXIT_CONFIG, "--n-grid"),
    "grid_size_1": (["crb", "{cfg}", "--grid-size", "1"], EXIT_CONFIG,
                    "--grid-size"),
    "grid_size_0": (["crb", "{cfg}", "--grid-size", "0"], EXIT_CONFIG,
                    "--grid-size"),
    "crb_n_0": (["crb", "{cfg}", "--n", "0"], EXIT_CONFIG, "--n"),
    "kind_unknown": (["crb", "{cfg}", "--kind", "bogus"], EXIT_CONFIG,
                     "--kind"),
    "seed_negative": (["simulate", "{cfg}", "--out", "{tmp}/x.csv",
                       "--seed", "-1"], EXIT_CONFIG, "--seed"),
    "orders_zero": (IDENTIFY[:4] + ["0,1,0,0"], EXIT_CONFIG, "--orders"),
    "config_orders_zero": (["montecarlo", "{orders0}", "--runs", "1",
                            "--out-dir", "{tmp}/mc"], EXIT_CONFIG,
                           "wnsf.orders"),
    # --runs and --jobs set no config key; both count something
    "runs_0": (["montecarlo", "{cfg}", "--runs", "0", "--out-dir",
                "{tmp}/mc"], EXIT_CONFIG, "--runs"),
    "jobs_0": (["montecarlo", "{cfg}", "--runs", "1", "--jobs", "0",
                "--out-dir", "{tmp}/mc"], EXIT_CONFIG, "--jobs"),
    # data files and output paths
    "csv_without_rows": (["identify", "--data", "{empty}", "--orders",
                          "2,2,1,1"], EXIT_CONFIG, "--data"),
    "csv_short_row": (["identify", "--data", "{short}", "--orders",
                       "2,2,1,1"], EXIT_CONFIG, "--data"),
    "simulate_out_missing_dir": (["simulate", "{cfg}", "--out",
                                  "{tmp}/missing/x.csv"], EXIT_CONFIG,
                                 "--out"),
    "identify_out_missing_dir": (IDENTIFY + ["--out", "{tmp}/missing/e.json"],
                                 EXIT_CONFIG, "--out"),
    "out_dir_under_file": (["montecarlo", "{cfg}", "--runs", "1",
                            "--out-dir", "{tmp}/afile/mc"], EXIT_CONFIG,
                           "--out-dir"),
    # the bound
    "finite_order_n_below_orders": (["crb", "{cfg}", "--kind",
                                     "finite_order", "--n", "1"],
                                    EXIT_BOUND, "n = 1"),
    "finite_order_c_not_inversely_stable": (
        ["crb", "{c_unstable}", "--kind", "finite_order", "--n", "20",
         "--grid-size", "256"], EXIT_BOUND, "noise model"),
    "crb_pole_on_unit_circle": (["crb", "{unit_root}", "--grid-size", "256"],
                                EXIT_BOUND, "unit circle"),
    "crb_snr_target": (["crb", "{snr}"], EXIT_CONFIG, "noise.snr_target"),
    # Python's json reads the constants NaN, Infinity and -Infinity
    "config_std_nan": (["simulate", "{std_nan}", "--out", "{tmp}/x.csv"],
                       EXIT_CONFIG, "noise.std"),
    "config_std_infinity": (["simulate", "{std_inf}", "--out",
                             "{tmp}/x.csv"], EXIT_CONFIG, "noise.std"),
    "config_gain_minus_infinity": (["crb", "{gain_minus_inf}"], EXIT_CONFIG,
                                   "reference.gain"),
}


@pytest.fixture
def bad_input_paths(tmp_path):
    doc = json.loads(json.dumps(BENCH_CONFIG))
    doc["experiment"]["N"] = 300
    doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [20]}
    variants = {
        "orders0": {"wnsf": {"orders": [0, 1, 0, 0]}},
        "snr": {"noise": {"snr_target": 50.0}},
        "c_unstable": {"system": dict(doc["system"], C=[1.0, 2.0])},
        "unit_root": {"system": dict(doc["system"], F=[1.0, -2.0, 1.0])},
        "std_nan": {"noise": {"std": float("nan")}},
        "std_inf": {"noise": {"std": float("inf")}},
        "gain_minus_inf": {"reference": {"gain": float("-inf")}},
    }
    paths = {"tmp": str(tmp_path), "cfg": _write_config(tmp_path, doc)}
    for name, change in variants.items():
        paths[name] = _write_config(tmp_path, dict(doc, **change),
                                    f"{name}.json")
    paths["data"] = str(tmp_path / "data.csv")
    generate(loop_config_from(doc)).to_csv(paths["data"])
    for name, text in (("empty", "t,r,u,y\n"),
                       ("short", "t,r,u,y\n1,0.1,0.2\n2,0.3,0.4\n")):
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text)
    (tmp_path / "afile").write_text("a regular file")
    return paths


class TestBadInputExitsCleanly:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_message(self, bad_input_paths, capsys, case):
        argv, code, named = BAD_INPUTS[case]
        assert main([a.format(**bad_input_paths) for a in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err


class TestIdentifyCommand:
    def test_oe_single_seed_fit(self, tmp_path, capsys):
        data_path = tmp_path / "oe.csv"
        assert main(["simulate", str(DEMOS / "fast_oe_closed_loop.json"),
                     "--out", str(data_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["identify", "--data", str(data_path),
                     "--orders", "3,2,0,0", "--n-grid", "250",
                     "--max-iter", "100", "--tol", "1e-4"])
        assert code == EXIT_OK
        est = json.loads(capsys.readouterr().out)
        model = BjModel.from_theta(np.array(est["theta"]), 3, 2, 0, 0)
        truth = json.loads((DEMOS / "fast_oe_closed_loop.json").read_text())
        true_model = BjModel.from_json({"L": truth["system"]["L"],
                                        "F": truth["system"]["F"]})
        assert fit_of_models(true_model.G, model.G) >= 90.0

    def test_estimate_within_three_sigma(self, tmp_path, capsys, bench_system,
                                         unit_controller):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"]["N"] = 10000
        cfg = _write_config(tmp_path, doc)
        data_path = tmp_path / "d.csv"
        main(["simulate", cfg, "--out", str(data_path)])
        capsys.readouterr()
        out_path = tmp_path / "est.json"
        code = main(["identify", "--data", str(data_path),
                     "--orders", "2,2,1,1", "--n-grid", "50",
                     "--known-zero-ic", "--out", str(out_path)])
        assert code == EXIT_OK
        est = json.loads(out_path.read_text())
        sm = SpectrumModel.from_loop_config(
            LoopConfig(system=bench_system, controller=unit_controller,
                       N=10000, seed=0))
        res = compute_mcr(sm)
        sd = np.sqrt(np.diag(res.M_inv) / 10000)
        err = np.abs(np.array(est["theta"]) - bench_system.theta)
        assert np.all(err <= 3 * sd)

    def test_all_infeasible_exit_code(self, tmp_path, capsys):
        data_path = tmp_path / "zeros.csv"
        DataSet(r=np.zeros(200), u=np.zeros(200),
                y=np.zeros(200)).to_csv(data_path)
        code = main(["identify", "--data", str(data_path),
                     "--orders", "2,2,1,1", "--n-grid", "20"])
        assert code == EXIT_IDENTIFICATION
        assert "identification failed" in capsys.readouterr().err

    def test_record_too_short_for_every_n(self, tmp_path, capsys):
        # every n of the default grid 50..300 needs N >= 2n + 1 > 80; the
        # command used to exit 4 without naming a single n
        data_path = tmp_path / "short.csv"
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"]["N"] = 80
        generate(loop_config_from(doc)).to_csv(data_path)
        code = main(["identify", "--data", str(data_path),
                     "--orders", "2,2,1,1"])
        assert code == EXIT_IDENTIFICATION
        reasons = dict(line.strip().split(": ", 1) for line
                       in capsys.readouterr().err.splitlines()[1:])
        assert sorted(reasons) == sorted(f"n={n}" for n in range(50, 301, 50))
        assert all("N >= 2n + 1" in reason for reason in reasons.values())

    def test_unreadable_data(self, tmp_path, capsys):
        code = main(["identify", "--data", str(tmp_path / "missing.csv"),
                     "--orders", "2,2,1,1"])
        assert code == EXIT_CONFIG


class TestMonteCarloCommand:
    def test_single_run_matches_identify(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"]["N"] = 2000
        doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [50],
                       "known_zero_ic": True}
        cfg = _write_config(tmp_path, doc)
        out_dir = tmp_path / "mc"
        code = main(["montecarlo", cfg, "--runs", "1",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        capsys.readouterr()

        data_path = tmp_path / "d.csv"
        main(["simulate", cfg, "--out", str(data_path)])
        capsys.readouterr()
        main(["identify", "--data", str(data_path), "--orders", "2,2,1,1",
              "--n-grid", "50", "--known-zero-ic"])
        est = json.loads(capsys.readouterr().out)
        rows = (out_dir / "runs.csv").read_text().splitlines()
        assert rows[0] == "seed,n_used,iterations,pem_cost,fit,mse,error"
        seed, n_used, iters, cost = rows[1].split(",")[:4]
        assert int(seed) == 0 and int(n_used) == est["n_used"]
        assert int(iters) == est["iterations"]
        assert float(cost) == est["pem_cost"]
        agg = json.loads((out_dir / "aggregate.json").read_text())
        assert agg["runs"] == 1 and agg["failures"] == 0
        assert (out_dir / "config.json").exists()

    def test_requires_wnsf_section(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        code = main(["montecarlo", cfg, "--runs", "1",
                     "--out-dir", str(tmp_path / "mc")])
        assert code == EXIT_CONFIG

    def test_jobs_do_not_change_results(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"]["N"] = 2000
        doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [50],
                       "known_zero_ic": True}
        cfg = _write_config(tmp_path, doc)
        d1, d2 = tmp_path / "mc1", tmp_path / "mc2"
        main(["montecarlo", cfg, "--runs", "2", "--jobs", "1",
              "--out-dir", str(d1)])
        main(["montecarlo", cfg, "--runs", "2", "--jobs", "2",
              "--out-dir", str(d2)])
        assert (d1 / "runs.csv").read_bytes() == (d2 / "runs.csv").read_bytes()


class TestCrbCommand:
    def test_closed_loop_trace(self, capsys):
        code = main(["crb", str(DEMOS / "closed_loop_bj.json")])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dyn_block_trace"] == pytest.approx(1.0259, abs=1e-3)

    def test_open_loop_trace(self, capsys):
        code = main(["crb", str(DEMOS / "open_loop_bj.json")])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dyn_block_trace"] == pytest.approx(1.9572, abs=1e-3)

    def test_grid_size_convergence(self, capsys):
        main(["crb", str(DEMOS / "closed_loop_bj.json"),
              "--grid-size", "4096"])
        t1 = json.loads(capsys.readouterr().out)["dyn_block_trace"]
        main(["crb", str(DEMOS / "closed_loop_bj.json"),
              "--grid-size", "8192"])
        t2 = json.loads(capsys.readouterr().out)["dyn_block_trace"]
        assert abs(t1 - t2) < 1e-6

    def test_non_informative_exit_code(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["controller"] = {"num": [0.0], "den": [1.0]}
        doc["reference"] = {"num": [1.0], "den": [1.0], "gain": 0.0}
        doc["experiment"]["loop_kind"] = "open"
        cfg = _write_config(tmp_path, doc)
        assert main(["crb", cfg]) == EXIT_BOUND

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["crb", str(DEMOS / "closed_loop_bj.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["M"]) == 6
