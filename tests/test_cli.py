import argparse
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wnsf.cli import (
    EXIT_BOUND,
    EXIT_CONFIG,
    EXIT_IDENTIFICATION,
    EXIT_OK,
    EXIT_SIMULATION,
    ConfigError,
    _flag_value,
    loop_config_from,
    main,
    with_flags,
)
from wnsf.crb import SpectrumModel, compute_mcr
from wnsf.estimator import ModelOrders
from wnsf.lti import BjModel
from wnsf.metrics import fit_of_models
from wnsf.simulate import DataSet, LoopConfig, generate

from conftest import random_stable_theta, unstable_predictor_record

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
        assert _flag_value("--n-grid", "50:300:50") == [50, 100, 150, 200,
                                                         250, 300]

    def test_two_part_range(self):
        assert _flag_value("--n-grid", "3:6") == [3, 4, 5, 6]

    def test_comma_list(self):
        assert _flag_value("--n-grid", "50,100,150") == [50, 100, 150]

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            _flag_value("--n-grid", "300:50:50")

    def test_orders(self):
        assert _flag_value("--orders", "2,2,1,1") == [2, 2, 1, 1]
        with pytest.raises(ConfigError):
            _flag_value("--orders", "2,2,1")


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
        # removed option: the config no longer knows it
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
    # flags are checked by the rules of the config key they set
    "max_iter_0": (IDENTIFY + ["--max-iter", "0"], EXIT_CONFIG, "--max-iter"),
    "tol_negative": (IDENTIFY + ["--tol", "-1"], EXIT_CONFIG, "--tol"),
    # argparse reads these as floats; a NaN tol never stopped the iteration
    "tol_nan": (IDENTIFY + ["--tol", "nan"], EXIT_CONFIG, "--tol"),
    "tol_inf": (IDENTIFY + ["--tol", "inf"], EXIT_CONFIG, "--tol"),
    "n_grid_0": (IDENTIFY[:-1] + ["0"], EXIT_CONFIG, "--n-grid"),
    # a repeated n used to be identified twice
    "n_grid_repeated": (IDENTIFY[:-1] + ["20,20"], EXIT_CONFIG, "--n-grid"),
    "config_n_grid_repeated": (["montecarlo", "{grid_repeated}", "--runs", "1",
                                "--out-dir", "{tmp}/mc"], EXIT_CONFIG,
                               "wnsf.n_grid"),
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
    # the bare message was "--data: cannot load data: 'r'"
    "csv_missing_columns": (["identify", "--data", "{missing}", "--orders",
                             "2,2,1,1"], EXIT_CONFIG, "no column 'r', 'u'\n"),
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
    # no reference and no feedback: full and reference_only exited 5, and
    # finite_order wrote a singular matrix and exited 0
    "finite_order_non_informative": (
        ["crb", "{non_informative}", "--kind", "finite_order", "--n", "20",
         "--grid-size", "256"], EXIT_BOUND,
        "(finite_order, n = 20): finite-order information matrix not "
        "positive definite"),
    "crb_pole_on_unit_circle": (["crb", "{unit_root}", "--grid-size", "256"],
                                EXIT_BOUND, "unit circle"),
    "crb_snr_target": (["crb", "{snr}"], EXIT_CONFIG, "noise.snr_target"),
    # a plant of degree 0 has nothing to bound; these exited 5
    "crb_f_degree_0": (["crb", "{f_degree0}"], EXIT_CONFIG, "system.F"),
    "crb_l_degree_0": (["crb", "{l_degree0}"], EXIT_CONFIG, "system.L"),
    # Python's json reads the constants NaN, Infinity and -Infinity
    "config_std_nan": (["simulate", "{std_nan}", "--out", "{tmp}/x.csv"],
                       EXIT_CONFIG, "noise.std"),
    "config_std_infinity": (["simulate", "{std_inf}", "--out",
                             "{tmp}/x.csv"], EXIT_CONFIG, "noise.std"),
    "config_gain_minus_infinity": (["crb", "{gain_minus_inf}"], EXIT_CONFIG,
                                   "reference.gain"),
    # the library classes check the values of the keys they are built from
    "config_f_not_monic": (["simulate", "{f_not_monic}", "--out",
                            "{tmp}/x.csv"], EXIT_CONFIG, "F must be monic"),
    "config_l_constant_term": (["crb", "{l_constant}"], EXIT_CONFIG,
                               "L must have zero constant term"),
    "config_seed_negative": (["simulate", "{seed_negative}", "--out",
                              "{tmp}/x.csv"], EXIT_CONFIG, "experiment.seed"),
    "config_snr_infinity": (["simulate", "{snr_inf}", "--out", "{tmp}/x.csv"],
                            EXIT_CONFIG, "noise.snr_target"),
    # a bool is an int to Python, not to JSON
    "config_N_true": (["simulate", "{N_true}", "--out", "{tmp}/x.csv"],
                      EXIT_CONFIG, "experiment.N"),
    "config_controller_den_not_monic": (
        ["montecarlo", "{k_den}", "--runs", "1", "--out-dir", "{tmp}/mc"],
        EXIT_CONFIG, "controller: denominator must be monic"),
    # a denominator alone used to end in KeyError: 'num'
    "config_reference_den_without_num": (["simulate", "{ref_den}", "--out",
                                          "{tmp}/x.csv"], EXIT_CONFIG,
                                         "reference: num is required"),
    # unstable D or reference filter: the 3000-sample record overflows, and
    # DataSet's ValueError used to escape as a traceback
    "simulate_noise_model_overflows": (["simulate", "{d_overflow}", "--out",
                                        "{tmp}/x.csv"], EXIT_SIMULATION,
                                       "non-finite values in u"),
    "simulate_reference_overflows": (["simulate", "{r_overflow}", "--out",
                                      "{tmp}/x.csv"], EXIT_SIMULATION,
                                     "non-finite values in r"),
    "montecarlo_noise_model_overflows": (
        ["montecarlo", "{d_overflow}", "--runs", "1", "--out-dir",
         "{tmp}/mc"], EXIT_SIMULATION, "non-finite values in u"),
    "montecarlo_reference_overflows": (
        ["montecarlo", "{r_overflow}", "--runs", "1", "--out-dir",
         "{tmp}/mc"], EXIT_SIMULATION, "non-finite values in r"),
    # a count numpy cannot allocate used to end in an _ArrayMemoryError
    # traceback; 1e18 samples are refused at once, so nothing is allocated
    "simulate_N_huge": (["simulate", "{N_huge}", "--out", "{tmp}/x.csv"],
                        EXIT_SIMULATION, "experiment.N"),
    "montecarlo_N_huge": (["montecarlo", "{N_huge}", "--runs", "1",
                           "--out-dir", "{tmp}/mc"], EXIT_SIMULATION,
                          "experiment.N"),
    "crb_grid_size_huge": (["crb", "{grid_huge}"], EXIT_BOUND,
                           "crb.grid_size"),
    "crb_n_huge": (["crb", "{n_huge}", "--grid-size", "256"], EXIT_BOUND,
                   "crb.n"),
    "crb_n_flag_huge": (["crb", "{cfg}", "--kind", "finite_order", "--n",
                         str(10**18), "--grid-size", "256"], EXIT_BOUND,
                        "--n"),
}


@pytest.fixture
def bad_input_paths(tmp_path):
    doc = json.loads(json.dumps(BENCH_CONFIG))
    doc["experiment"]["N"] = 300
    doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [20]}
    variants = {
        "orders0": {"wnsf": {"orders": [0, 1, 0, 0]}},
        "grid_repeated": {"wnsf": {"orders": [2, 2, 1, 1],
                                   "n_grid": [20, 30, 20]}},
        "snr": {"noise": {"snr_target": 50.0}},
        "c_unstable": {"system": dict(doc["system"], C=[1.0, 2.0])},
        "unit_root": {"system": dict(doc["system"], F=[1.0, -2.0, 1.0])},
        "non_informative": {"experiment": dict(doc["experiment"],
                                               loop_kind="open"),
                            "reference": {"gain": 0.0}},
        "std_nan": {"noise": {"std": float("nan")}},
        "std_inf": {"noise": {"std": float("inf")}},
        "gain_minus_inf": {"reference": {"gain": float("-inf")}},
        "snr_inf": {"noise": {"snr_target": float("inf")}},
        "seed_negative": {"experiment": dict(doc["experiment"], seed=-1)},
        "N_true": {"experiment": dict(doc["experiment"], N=True)},
        "N_huge": {"experiment": dict(doc["experiment"], N=1e18)},
        "grid_huge": {"crb": {"grid_size": 1e18}},
        "n_huge": {"crb": {"kind": "finite_order", "n": 1e18}},
        "f_not_monic": {"system": dict(doc["system"], F=[2.0, -0.5])},
        "l_constant": {"system": dict(doc["system"], L=[1.0, 1.0])},
        "f_degree0": {"system": dict(doc["system"], F=[1.0])},
        "l_degree0": {"system": dict(doc["system"], L=[0.0])},
        "k_den": {"controller": {"num": [1.0], "den": [0.5]}},
        "ref_den": {"reference": {"den": [1.0, -0.5]}},
        "d_overflow": {"system": dict(doc["system"], D=[1.0, -1.5]),
                       "experiment": dict(doc["experiment"], N=3000)},
        "r_overflow": {"reference": {"num": [1.0], "den": [1.0, -1.5]},
                       "experiment": dict(doc["experiment"], N=3000)},
    }
    paths = {"tmp": str(tmp_path), "cfg": _write_config(tmp_path, doc)}
    for name, change in variants.items():
        paths[name] = _write_config(tmp_path, dict(doc, **change),
                                    f"{name}.json")
    paths["data"] = str(tmp_path / "data.csv")
    generate(loop_config_from(doc)).to_csv(paths["data"])
    for name, text in (("empty", "t,r,u,y\n"),
                       ("short", "t,r,u,y\n1,0.1,0.2\n2,0.3,0.4\n"),
                       ("missing", "t,y\n1,0.1\n2,0.3\n")):
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

    def test_unstable_predictor_names_n(self, tmp_path, capsys):
        # every candidate had pem_cost = inf; the command used to print
        # "identification failed" without an n= line
        data, _, _ = unstable_predictor_record()
        data.to_csv(tmp_path / "d.csv")
        code = main(["identify", "--data", str(tmp_path / "d.csv"),
                     "--orders", "2,1,1,1", "--n-grid", "20",
                     "--max-iter", "1"])
        assert code == EXIT_IDENTIFICATION
        err = capsys.readouterr().err
        assert "n=20: no iterate with a stable predictor" in err

    def test_unstable_iterate_cost_is_json_null(self, tmp_path):
        # some iterates of this record have an unstable predictor; their
        # pem_cost of inf was written as Infinity, which JSON does not have
        orders = ModelOrders(2, 1, 1, 1)
        theta0 = random_stable_theta(np.random.default_rng(72), 2, 1, 1, 1)
        generate(LoopConfig(system=orders.model(theta0), N=400,
                            noise_std=0.5, seed=72)).to_csv(tmp_path / "d.csv")
        out = tmp_path / "est.json"
        code = main(["identify", "--data", str(tmp_path / "d.csv"),
                     "--orders", "2,1,1,1", "--n-grid", "20",
                     "--max-iter", "3", "--out", str(out)])
        assert code == EXIT_OK

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        costs = [entry["pem_cost"] for entry in doc["trace"]]
        assert None in costs
        assert all(c is None or np.isfinite(c) for c in costs)

    def test_failures_and_ridge_in_the_estimate(self, tmp_path, capsys):
        # n = 600 needs N >= 1201; the estimate names it and says for every
        # candidate whether step 1 took the ridge
        data_path = tmp_path / "d.csv"
        generate(loop_config_from(BENCH_CONFIG)).to_csv(data_path)
        out = tmp_path / "est.json"
        code = main(["identify", "--data", str(data_path), "--orders",
                     "2,2,1,1", "--n-grid", "600,20,40", "--known-zero-ic",
                     "--max-iter", "2", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["failures"] == {
            "600": "step 1/2 failed: ARX order n=600 needs N >= 2n + 1, "
                   "not N=1000"}
        assert {e["n"] for e in doc["trace"]} == {20, 40}
        assert all(e["regularized"] is False for e in doc["trace"])
        assert doc["regularized"] is False

    def test_failures_written_when_identification_fails(self, tmp_path,
                                                        capsys):
        data_path = tmp_path / "zeros.csv"
        DataSet(r=np.zeros(200), u=np.zeros(200),
                y=np.zeros(200)).to_csv(data_path)
        out = tmp_path / "est.json"
        code = main(["identify", "--data", str(data_path), "--orders",
                     "2,2,1,1", "--n-grid", "20,120", "--out", str(out)])
        assert code == EXIT_IDENTIFICATION
        failures = json.loads(out.read_text())["failures"]
        assert sorted(failures) == ["120", "20"]
        assert "N >= 2n + 1" in failures["120"]

    def test_same_input_is_byte_identical(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        generate(loop_config_from(BENCH_CONFIG)).to_csv(data_path)
        argv = ["identify", "--data", str(data_path), "--orders", "2,2,1,1",
                "--n-grid", "40,20,30", "--known-zero-ic", "--out"]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(argv + [str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

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
        for name in ("runs.csv", "aggregate.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_aggregate_file_is_the_printed_document(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"].update(N=300, seed=5)
        doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [20]}
        cfg = _write_config(tmp_path, doc)
        out_dir = tmp_path / "mc"
        assert main(["montecarlo", cfg, "--runs", "2",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        text = (out_dir / "aggregate.json").read_text()
        assert text == capsys.readouterr().out
        agg = json.loads(text)
        assert (agg["runs"], agg["failures"], agg["base_seed"]) == (2, 0, 5)


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


class TestConfigReading:
    def test_gain_only_reference(self, tmp_path, capsys):
        # a reference section without num used to end in KeyError: 'num'
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"]["N"] = 300
        runs = {}
        for name, ref in (("gain", {"gain": 2.0}),
                          ("unit", {"num": [1.0], "gain": 2.0}),
                          ("none", None)):
            doc.pop("reference", None)
            if ref is not None:
                doc["reference"] = ref
            cfg = _write_config(tmp_path, doc, f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", cfg, "--out", str(out)]) == EXIT_OK
            assert main(["crb", cfg, "--grid-size", "256"]) == EXIT_OK
            runs[name] = (DataSet.from_csv(out).r, capsys.readouterr().out)
        np.testing.assert_array_equal(runs["gain"][0], runs["unit"][0])
        np.testing.assert_array_equal(runs["gain"][0], 2.0 * runs["none"][0])
        assert runs["gain"][1] == runs["unit"][1]

    def test_integral_floats_in_integer_keys(self, tmp_path, capsys):
        # 20.0 is an integer to the config; n_grid, max_iter, orders,
        # grid_size and n used to end in TypeError
        doc = json.loads(json.dumps(BENCH_CONFIG))
        doc["experiment"] = {"loop_kind": "closed", "N": 300, "seed": 1}
        doc["wnsf"] = {"orders": [2, 2, 1, 1], "n_grid": [20, 30],
                       "max_iter": 3}
        doc["crb"] = {"kind": "finite_order", "grid_size": 256, "n": 30}
        floats = json.loads(json.dumps(doc))
        floats["experiment"].update(N=300.0, seed=1.0)
        floats["wnsf"].update(orders=[2.0, 2.0, 1.0, 1.0], n_grid=[20.0, 30.0],
                              max_iter=3.0)
        floats["crb"].update(grid_size=256.0, n=30.0)
        outputs = []
        for name, d in (("ints", doc), ("floats", floats)):
            cfg = _write_config(tmp_path, d, f"{name}.json")
            assert main(["montecarlo", cfg, "--runs", "2", "--out-dir",
                         str(tmp_path / name)]) == EXIT_OK
            assert main(["crb", cfg]) == EXIT_OK
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("runs.csv", "aggregate.json")]
                           + [capsys.readouterr().out])
        assert outputs[0] == outputs[1]

    def test_echo_is_the_config_as_read(self, tmp_path):
        cfg = _write_config(tmp_path, BENCH_CONFIG)
        out = tmp_path / "d.csv"
        assert main(["simulate", cfg, "--out", str(out), "--seed", "5"]) == 0
        echo = json.loads((tmp_path / "d.csv.config.json").read_text())
        assert echo["experiment"] == BENCH_CONFIG["experiment"]
        assert echo["effective"]["seed"] == 5

    def test_with_flags_writes_a_copy(self):
        doc = json.loads(json.dumps(BENCH_CONFIG))
        args = argparse.Namespace(seed=7, kind="finite_order", n=None,
                                  n_grid="10:30:10", known_zero_ic=None)
        merged = with_flags(doc, args)
        assert doc == BENCH_CONFIG
        assert merged["experiment"] == dict(doc["experiment"], seed=7)
        assert merged["crb"] == {"kind": "finite_order"}
        assert merged["wnsf"] == {"n_grid": [10, 20, 30]}
        assert merged["system"] == doc["system"]


# -- fuzzed configs and data files -----------------------------------------

ALLOWED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION, EXIT_IDENTIFICATION,
                 EXIT_BOUND}


def _sometimes(draw, usual, other):
    """``usual``, and about one time in eight a draw from ``other``."""
    # Hypothesis favours the ends of a range, so the rare case sits inside
    return draw(other) if draw(st.integers(0, 7)) == 3 else usual


@st.composite
def _integer(draw, lo, hi):
    """An integer, sometimes written as an integral float."""
    n = draw(st.integers(lo, hi))
    return float(n) if draw(st.booleans()) else n


@st.composite
def _coeffs(draw, lead, degree=0):
    """A short list in [-3, 3] whose first entry is mostly ``lead`` (1 for
    a monic polynomial, 0 for L), of at least the given degree; the others
    are mostly small, so that many loops are stable."""
    first = _sometimes(draw, lead, st.sampled_from([0.0, 1.0, 2.0, -0.5]))
    bound = _sometimes(draw, 0.5, st.just(3.0))
    return [first] + draw(st.lists(st.floats(-bound, bound),
                                   min_size=degree, max_size=3))


@st.composite
def _configs(draw):
    doc = {
        "system": {"F": draw(_coeffs(1.0, 1)), "L": draw(_coeffs(0.0, 1)),
                   "C": draw(_coeffs(1.0)), "D": draw(_coeffs(1.0))},
        "controller": {"num": draw(_coeffs(0.5)), "den": draw(_coeffs(1.0))},
        "reference": {"num": draw(_coeffs(1.0)), "den": draw(_coeffs(1.0)),
                      "gain": draw(st.floats(-3, 3))},
        "noise": _sometimes(draw, draw(st.sampled_from(
            [{"std": 1.0}, {"std": 0.0}, {"snr_target": 5.0}])),
            st.just({"std": 1.0, "snr_target": 5.0})),
        "experiment": {"loop_kind": draw(st.sampled_from(
                           ["open", "closed", "closed_ref_through_K"])),
                       "N": draw(_integer(1, 300)),
                       "seed": draw(_integer(0, 5))},
        "wnsf": {"orders": [draw(_integer(1, 3)), draw(_integer(1, 3)),
                            draw(_integer(0, 2)), draw(_integer(0, 2))],
                 "n_grid": draw(st.lists(_integer(1, 30), min_size=1,
                                         max_size=2)),
                 "max_iter": draw(_integer(1, 3)),
                 "known_zero_ic": draw(st.booleans())},
        "crb": {"kind": draw(st.sampled_from(
                    ["full", "reference_only", "finite_order"])),
                "grid_size": draw(_integer(2, 512)),
                "n": draw(_integer(1, 30))},
    }
    # drop optional and required keys alike; the size keys stay, so that
    # no default grid or order makes an example slow
    droppable = [(section, key) for section, body in doc.items()
                 for key in [None] + list(body)
                 if key not in ("n_grid", "max_iter", "grid_size", "n")]
    for section, key in _sometimes(draw, [], st.lists(
            st.sampled_from(droppable), min_size=1, max_size=3, unique=True)):
        if key is None:
            doc.pop(section, None)
        elif section in doc:
            del doc[section][key]
    where = _sometimes(draw, None, st.sampled_from(["(root)", *doc]))
    if where is not None:
        (doc if where == "(root)" else doc[where])["bogus"] = 1
    # a value of the wrong JSON type in place of one key's value
    leaves = [(section, key) for section, body in doc.items()
              if isinstance(body, dict) for key in body]
    if leaves:
        section, key = _sometimes(draw, (None, None), st.sampled_from(leaves))
        if section is not None:
            doc[section][key] = draw(st.sampled_from(
                [True, "1", [], {}, [True], None]))
    return doc


@st.composite
def _csvs(draw):
    header = _sometimes(draw, draw(st.sampled_from(["t,r,u,y", "t,r,u,y,e"])),
                        st.lists(st.sampled_from(["t", "r", "u", "y", "e", "z"]),
                                 min_size=1, max_size=6).map(",".join))
    width = len(header.split(","))
    rows = draw(st.lists(st.lists(st.floats(-10, 10).map(repr),
                                  min_size=width, max_size=width),
                         max_size=40))
    # at most one defect per file, so that most files load
    defect = _sometimes(draw, None, st.sampled_from(
        ["nan", "inf", "-inf", "x", "", "ragged"]))
    if defect is not None and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[-1:] = [] if defect == "ragged" else [defect]
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _run(argv):
    code = main(argv)
    assert code in ALLOWED_EXITS
    return code


class TestFuzzedInputsExitCleanly:
    """Whatever the config or data file, every command ends in a documented
    exit code; an exception escaping ``main`` fails the test."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_configs(), st.sampled_from(["1,1,0,0", "2,2,1,1", "2,1,0,0"]))
    def test_config(self, doc, orders):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _write_config(Path(tmp), doc)
            data = str(Path(tmp) / "data.csv")
            if _run(["simulate", cfg, "--out", data]) == EXIT_OK:
                _run(["identify", "--data", data, "--orders", orders,
                      "--n-grid", "5,10", "--max-iter", "2"])
            _run(["crb", cfg])
            _run(["montecarlo", cfg, "--runs", "1", "--out-dir",
                  str(Path(tmp) / "mc")])

    @settings(max_examples=120, deadline=None)
    @given(_csvs())
    def test_data_file(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data.csv"
            data.write_text(text)
            _run(["identify", "--data", str(data), "--orders", "1,1,0,0",
                  "--n-grid", "2,5", "--max-iter", "2"])
