"""Command-line interface: subcommands, config files, file round-trips."""

import numpy as np
import pytest

import graphdisc.experiment
from graphdisc.cli import load_config_file, main
from graphdisc.errors import ConfigurationError
from graphdisc.filters import load_bank, save_bank
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
        taps = load_bank(str(bpath))
        assert taps.shape == (32, 3)

        out2 = tmp_path / "results2"
        assert run_tiny(out2, "--load-bank", bpath) == 0

    def test_save_and_load_model(self, tmp_path, capsys):
        out = tmp_path / "results"
        mpath = tmp_path / "model.txt"
        run_tiny(out, "--save-model", mpath)
        taps, readout, sigma = load_model(str(mpath))
        assert taps.shape[0] == 32
        assert readout.shape == (32,)
        assert sigma.kind == "tanh"

        out2 = tmp_path / "results2"
        assert run_tiny(out2, "--load-model", mpath) == 0

    def test_model_round_trip_preserves_parameters(self, tmp_path, capsys):
        mpath = tmp_path / "model.txt"
        run_tiny(tmp_path / "r1", "--save-model", mpath)
        taps, readout, _ = load_model(str(mpath))
        # warm start with zero epochs keeps the loaded parameters verbatim
        mpath2 = tmp_path / "model2.txt"
        main(["run", "--subspace", "high", "--seed", "3",
              "--out", str(tmp_path / "r2"), "--graphs", "1", "--epochs", "0",
              "--train", "30", "--val", "10", "--test", "10",
              "--load-model", str(mpath), "--save-model", str(mpath2)])
        taps2, readout2, _ = load_model(str(mpath2))
        np.testing.assert_array_equal(taps2, taps)
        np.testing.assert_array_equal(readout2, readout)


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


class TestJobs:
    def test_result_files_identical_across_jobs(self, tmp_path, capsys):
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--subspace", "all", "--seed", "3", "--out", str(out),
                         *TINY, "--graphs", "2", "--jobs", jobs]) == 0
            outs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "runs.csv"}  # runs.csv holds wall times
        assert "summary.csv" in outs["1"] and len(outs["1"]) == 1 + 3 * 2 * 2
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run_tiny(out, "--jobs", jobs) == 2
        assert capsys.readouterr().err == f"graphdisc: error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_pool_no_larger_than_the_replicate_count(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(graphdisc.experiment, "ProcessPoolExecutor", RecordingPool)
        assert run_tiny(tmp_path / "one", "--jobs", "4") == 0
        assert sizes == []  # one replicate runs in this process
        assert run_tiny(tmp_path / "three", "--subspace", "all", "--jobs", "8") == 0
        assert sizes == [3]


class TestErrorExit:
    def test_too_few_nodes(self, tmp_path, capsys):
        code = main(["verify", "--nodes", "5", "--cutoff", "5", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: need n > k_neighbors, got n=5, k_neighbors=5\n"

    @pytest.mark.parametrize("argv", [["--neighbors", "-2"],
                                      ["--nodes", "-3", "--neighbors", "-5"]])
    def test_neighbors_below_one(self, tmp_path, capsys, argv):
        code = main(["verify", *argv, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: k_neighbors must be at least 1, got {argv[-1]}\n"

    def test_cutoff_out_of_range(self, tmp_path, capsys):
        code = main(["verify", "--nodes", "5", "--neighbors", "2", "--cutoff", "5",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: split index must satisfy 0 < k < 5, got 5\n"

    def test_split_inside_repeated_eigenvalue(self, tmp_path, capsys):
        # one neighbour per node leaves several components; on seed 1 the
        # graph has more than 4, so the zero eigenvalue repeats across the
        # default cutoff of 4 (seed 0 has exactly 4 and splits cleanly)
        code = main(["verify", "--neighbors", "1", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("graphdisc: error: split index 4 falls inside a repeated "
                              "eigenvalue") and err.count("\n") == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("volume = 11\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: {path}:1: unknown key 'volume'\n"

    def test_diverged_run(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("learning_rate = 1e200\n")
        code = run_tiny(tmp_path / "out", "--config", path)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("graphdisc: error: replicate high graph 0: training "
                              "diverged in epoch 0: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "summary.csv").exists()

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
        # two replicates, so that --jobs 2 runs them in worker processes
        path = tmp_path / "bank.txt"
        save_bank(np.eye(2), str(path))
        code = run_tiny(tmp_path / "out", "--load-bank", path, "--graphs", "2", "--jobs", jobs)
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("graphdisc: error: replicate high graph 0: "
                       "warm-start taps shape (2, 2) != (32, 3)\n")


    def test_out_is_a_file_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("a replicate ran before --out was checked")

        monkeypatch.setattr(graphdisc.experiment, "run_replicate", no_training)
        path = tmp_path / "a_file"
        path.write_text("")
        code = run_tiny(path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: cannot use {path} as output directory: File exists\n"

    def test_verify_out_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "a_file"
        path.write_text("")
        code = main(["verify", "--graphs", "1", "--trials", "2", "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"graphdisc: error: cannot use {path} ")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_trials_below_one(self, capsys, trials):
        code = main(["gradcheck", "--trials", trials])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"graphdisc: error: --trials must be at least 1, got {trials}\n"

    def test_truncated_graph_file(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("")
        code = main(["run", "--load-graph", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: {path}:1: expected `n k seed`, found the end of the file\n"


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert "FAIL" not in out


class TestNoImprovementWarning:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exploding_run_warns_per_model(self, tmp_path, capsys, jobs):
        # with this step size the loss explodes but stays finite, so the run
        # succeeds and keeps the initial models
        path = tmp_path / "exp.cfg"
        path.write_text("learning_rate = 1e6\n")
        code = run_tiny(tmp_path / "out", "--config", path, "--graphs", "2", "--jobs", jobs)
        assert code == 0
        err = capsys.readouterr().err
        assert err == "".join(
            f"graphdisc: warning: replicate high graph {g} {name}: "
            "no epoch improved on the initial model\n"
            for g in (0, 1) for name in ("filter_bank", "gnn"))
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_ordinary_run_is_silent(self, tmp_path, capsys):
        assert run_tiny(tmp_path / "out") == 0
        assert capsys.readouterr().err == ""

    def test_zero_epochs_is_silent(self, tmp_path, capsys):
        assert run_tiny(tmp_path / "out", "--epochs", "0") == 0
        assert capsys.readouterr().err == ""
