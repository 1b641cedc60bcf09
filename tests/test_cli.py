"""Command-line interface: subcommands, config files, file round-trips."""

import numpy as np
import pytest

from graphdisc.cli import load_config_file, main
from graphdisc.errors import ConfigurationError
from graphdisc.filters import FilterBank, FirFilter, load_bank, save_bank
from graphdisc.gnn import load_model
from graphdisc.graphs import load_graph

TINY = ["--graphs", "1", "--epochs", "1", "--train", "30", "--val", "10",
        "--test", "10", "--batch-size", "10"]


def run_tiny(out_dir, *extra):
    return main(["run", "--subspace", "high", "--seed", "3",
                 "--out", str(out_dir), *TINY, *map(str, extra)])


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment line\n"
                        "graphs = 4\n"
                        "il_weight = 0.02  # inline comment\n"
                        "subspace = low\n")
        values = load_config_file(str(path))
        assert values == {"graphs": 4, "il_weight": 0.02, "subspace": "low"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ConfigurationError):
            load_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("graphs 4\n")
        with pytest.raises(ConfigurationError):
            load_config_file(str(path))

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graphs = 7\nepochs = 9\n")
        out = tmp_path / "results"
        code = main(["run", "--subspace", "high", "--seed", "3", "--config",
                     str(cfg), "--out", str(out), *TINY])
        assert code == 0
        runs = (out / "runs.csv").read_text().strip().split("\n")
        assert len(runs) == 1 + 2  # graphs flag (1) overrode the file's 7


class TestRunCommand:
    def test_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_tiny(out) == 0
        assert (out / "summary.csv").exists()
        assert (out / "runs.csv").exists()
        assert (out / "history_high_gnn_g0.csv").exists()

    def test_deterministic_summary_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_tiny(a)
        run_tiny(b)
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_dump_and_load_graph(self, tmp_path, capsys):
        out = tmp_path / "results"
        gpath = tmp_path / "graph.txt"
        run_tiny(out, "--dump-graph", gpath)
        g = load_graph(str(gpath))
        assert g.n == 50

        out2 = tmp_path / "results2"
        code = main(["run", "--subspace", "high", "--seed", "3", "--out",
                     str(out2), *TINY, "--load-graph", str(gpath)])
        assert code == 0
        assert (out2 / "summary.csv").exists()

    def test_save_and_load_bank(self, tmp_path, capsys):
        out = tmp_path / "results"
        bpath = tmp_path / "bank.txt"
        run_tiny(out, "--save-bank", bpath)
        bank = load_bank(str(bpath))
        assert bank.size == 32
        assert bank.filters[0].taps.size == 3

        out2 = tmp_path / "results2"
        assert run_tiny(out2, "--load-bank", bpath) == 0

    def test_save_and_load_model(self, tmp_path, capsys):
        out = tmp_path / "results"
        mpath = tmp_path / "model.txt"
        run_tiny(out, "--save-model", mpath)
        bank, readout, sigma = load_model(str(mpath))
        assert bank.size == 32
        assert readout.weights.shape == (32,)
        assert sigma.kind == "tanh"

        out2 = tmp_path / "results2"
        assert run_tiny(out2, "--load-model", mpath) == 0

    def test_model_round_trip_preserves_parameters(self, tmp_path, capsys):
        mpath = tmp_path / "model.txt"
        run_tiny(tmp_path / "r1", "--save-model", mpath)
        bank, readout, _ = load_model(str(mpath))
        # warm start with zero epochs keeps the loaded parameters verbatim
        mpath2 = tmp_path / "model2.txt"
        main(["run", "--subspace", "high", "--seed", "3",
              "--out", str(tmp_path / "r2"), "--graphs", "1", "--epochs", "0",
              "--train", "30", "--val", "10", "--test", "10",
              "--load-model", str(mpath), "--save-model", str(mpath2)])
        bank2, readout2, _ = load_model(str(mpath2))
        np.testing.assert_array_equal(bank2.taps_matrix, bank.taps_matrix)
        np.testing.assert_array_equal(readout2.weights, readout.weights)


class TestVerifyCommand:
    def test_all_suites_pass_and_emit_csv(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--theorem", "all", "--trials", "30",
                     "--seed", "1", "--graphs", "1", "--nodes", "16",
                     "--cutoff", "4", "--out", str(out)])
        assert code == 0
        for name in ("theorem1", "theorem2", "corollary1", "corollary2"):
            path = out / f"verify_{name}.csv"
            assert path.exists()
            header = path.read_text().split("\n")[0]
            assert header == ("trial,in_d_h,in_d_phi,residual_low_filter,"
                              "residual_low_gnn,max_secant_deviation")
        assert (out / "cor2_probe_g0.csv").exists()
        assert "verification passed" in capsys.readouterr().out

    def test_corollary2_seed_17_passes(self, tmp_path, capsys):
        # the probe's root search once raised on this seed
        code = main(["verify", "--theorem", "cor2", "--graphs", "1",
                     "--trials", "200", "--seed", "17", "--out", str(tmp_path)])
        assert code == 0
        assert "verification passed" in capsys.readouterr().out

    def test_single_suite(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--theorem", "1", "--trials", "20",
                     "--seed", "2", "--nodes", "12", "--cutoff", "3",
                     "--out", str(out)])
        assert code == 0
        assert (out / "verify_theorem1.csv").exists()
        assert not (out / "verify_theorem2.csv").exists()


    @pytest.mark.parametrize("flag, value", [("--graphs", "0"), ("--trials", "-3")])
    def test_rejects_nonpositive_counts(self, tmp_path, capsys, flag, value):
        code = main(["verify", "--theorem", "1", flag, value, "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "verification passed" not in captured.out
        assert captured.err == f"graphdisc: error: {flag} must be at least 1, got {value}\n"


class TestErrorExit:
    def test_too_few_nodes(self, tmp_path, capsys):
        code = main(["verify", "--nodes", "5", "--cutoff", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: need n > k_neighbors, got n=5, k_neighbors=5\n"

    def test_cutoff_out_of_range(self, tmp_path, capsys):
        code = main(["verify", "--nodes", "5", "--neighbors", "2", "--cutoff", "5",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: split index must satisfy 0 < k < 5, got 5\n"

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("volume = 11\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: {path}:1: unknown key 'volume'\n"

    def test_malformed_config_value(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("graphs = four\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: {path}:1: graphs expects int, got 'four'\n"

    @pytest.mark.parametrize("flag", ["--config", "--load-graph", "--load-bank", "--load-model"])
    def test_missing_file(self, tmp_path, capsys, flag):
        path = tmp_path / "nope.txt"
        code = main(["run", flag, str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: cannot read {path}: No such file or directory\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bank_of_wrong_shape(self, tmp_path, capsys, jobs):
        path = tmp_path / "bank.txt"
        save_bank(FilterBank((FirFilter([1.0, 0.0]), FirFilter([0.0, 1.0]))), str(path))
        code = run_tiny(tmp_path / "out", "--load-bank", path, "--jobs", jobs)
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("graphdisc: error: replicate high graph 0: "
                       "warm-start taps shape (2, 2) != (32, 3)\n")


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out
