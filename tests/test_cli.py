"""Command-line interface: subcommands, config files, file round-trips."""

import concurrent.futures
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphdisc.cli
import graphdisc.discriminability
import graphdisc.experiment
from graphdisc.cli import load_config_file, main
from graphdisc.errors import ConfigurationError
from graphdisc.filters import load_bank, save_bank
from graphdisc.gnn import Nonlinearity, TrainableModel, load_model, save_model
from graphdisc.graphs import generate_geometric_graph, load_graph, save_graph
from graphdisc.spectral import eig_sym

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

    def test_key_set_twice(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("epochs = 3\n# comment\nepochs = 5\n")
        with pytest.raises(ConfigurationError) as info:
            load_config_file(str(path))
        assert str(info.value) == f"{path}:3: key 'epochs' already set on line 1"

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graphs = 7\nepochs = 9\n")
        out = tmp_path / "results"
        code = main(["run", "--subspace", "high", "--seed", "3", "--config",
                     str(cfg), "--out", str(out), *TINY])
        assert code == 0
        runs = (out / "runs.csv").read_text().strip().split("\n")
        assert len(runs) == 1 + 2  # graphs flag (1) overrode the file's 7


    @pytest.mark.parametrize("preset, overrides", [
        ("paper", {}), ("desk", dict(graphs=10, train=2000, epochs=20))])
    def test_preset(self, preset, overrides):
        args = graphdisc.cli._parser().parse_args(["run", "--preset", preset])
        assert graphdisc.cli.build_config(args) == graphdisc.experiment.ExperimentConfig(**overrides)


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

    def test_load_graph_note_goes_to_stderr(self, tmp_path, capsys):
        gpath = tmp_path / "graph.txt"
        run_tiny(tmp_path / "results", "--dump-graph", gpath)
        capsys.readouterr()
        assert run_tiny(tmp_path / "results2", "--load-graph", gpath, "--graphs", "2") == 0
        out, err = capsys.readouterr()
        assert err == "graphdisc: note: --load-graph fixes the graph, forcing --graphs 1\n"
        assert "forcing --graphs 1" not in out
        assert len((tmp_path / "results2" / "runs.csv").read_text().splitlines()) == 1 + 2

    def test_wrote_line_counts_out_and_names_the_rest(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_tiny(out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote: 4 files in {out}"

        paths = [tmp_path / name for name in ("graph.txt", "bank.txt", "model.txt")]
        assert run_tiny(out, "--dump-graph", paths[0], "--save-bank", paths[1],
                        "--save-model", paths[2]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote: 4 files in {out}, {paths[0]}, {paths[1]}, {paths[2]}")

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
        model = load_model(str(mpath))
        assert model.taps.shape[0] == 32
        assert model.readout.shape == (32,)
        assert model.sigma.kind == "tanh"

        out2 = tmp_path / "results2"
        assert run_tiny(out2, "--load-model", mpath) == 0

    def test_result_files_unchanged(self, tmp_path, capsys, pinned_build):
        # sha256 of a toy run's results as written before the
        # integral-Lipschitz estimate moved into filters
        out = tmp_path / "results"
        assert run_tiny(out, "--epochs", 3) == 0
        files = ["summary.csv", "history_high_filter_bank_g0.csv", "history_high_gnn_g0.csv"]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in files}
        assert digests == {
            "summary.csv":
                "48362d3842c17b5220b1840a9a4ab3ae121d34396d3e7dab894291d0b937bc64",
            "history_high_filter_bank_g0.csv":
                "b65bc16694ce38edc1b31f1cf93ce4121f2c04a75b9ae6a82737893f205a5f54",
            "history_high_gnn_g0.csv":
                "fa4988230e0463fe35b5a6c02dd19d3f5ecae484a6a2766f6c96323b0b2fe48d",
        }, pinned_build

    def test_model_round_trip_preserves_parameters(self, tmp_path, capsys):
        mpath = tmp_path / "model.txt"
        run_tiny(tmp_path / "r1", "--save-model", mpath)
        model = load_model(str(mpath))
        # warm start with zero epochs keeps the loaded parameters verbatim
        mpath2 = tmp_path / "model2.txt"
        main(["run", "--subspace", "high", "--seed", "3",
              "--out", str(tmp_path / "r2"), "--graphs", "1", "--epochs", "0",
              "--train", "30", "--val", "10", "--test", "10",
              "--load-model", str(mpath), "--save-model", str(mpath2)])
        model2 = load_model(str(mpath2))
        np.testing.assert_array_equal(model2.taps, model.taps)
        np.testing.assert_array_equal(model2.readout, model.readout)


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

    def test_failed_verdict_exits_one(self, tmp_path, capsys, monkeypatch):
        verify = graphdisc.discriminability.verify_theorem1
        monkeypatch.setattr("graphdisc.discriminability.verify_theorem1",
                            lambda *a: dataclasses.replace(verify(*a), passed=False))
        code = main(["verify", "--theorem", "1", "--trials", "5", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.endswith("verification FAILED\n")
        assert len((tmp_path / "verify_theorem1.csv").read_text().splitlines()) == 6

    def test_trials_numbered_across_graphs(self, tmp_path, capsys):
        code = main(["verify", "--theorem", "1", "--graphs", "2", "--trials", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "verify_theorem1.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == [str(t) for t in range(6)]

    def test_each_graph_built_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("graphdisc.cli.eig_sym", lambda s: calls.append(1) or eig_sym(s))
        code = main(["verify", "--theorem", "all", "--graphs", "3", "--trials", "3",
                     "--nodes", "12", "--cutoff", "3", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 3

    def test_trial_logs_unchanged(self, tmp_path, capsys, pinned_build):
        # sha256 of the trial logs as written before the verifiers judged
        # their pairs in one stacked pass
        code = main(["verify", "--theorem", "all", "--seed", "0", "--trials", "50",
                     "--out", str(tmp_path)])
        assert code == 0
        files = [f"verify_{name}.csv" for name in
                 ("theorem1", "theorem2", "corollary1", "corollary2")] + ["cor2_probe_g0.csv"]
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in files}
        assert digests == {
            "verify_theorem1.csv":
                "4c343a008581fefb46c69f2d59854c1caf27ed6f66a1d307b31b5eab9709be29",
            "verify_theorem2.csv":
                "c2ba395cbbabfd542ecf514885f6ed2c11f12420f7ddd298ed91624019c98225",
            "verify_corollary1.csv":
                "1d74846cd7255f756d5d95e4862fbffe6ac964cd9c4e878bc23a6561fc7f4608",
            "verify_corollary2.csv":
                "0e564a3a2be9308b870bbc4937120535bedabcb595fdd241096d402c336895f9",
            "cor2_probe_g0.csv":
                "998d1ce58477416f79b11074431e6a04e6d9e1a97e7be1e47a7291f51e3b4655",
        }, pinned_build
        # the summary lines, as printed before the verifiers returned one report type
        assert capsys.readouterr().out.replace(str(tmp_path), "<out>") == (
            "== theorem1 (1 graphs x 50 trials) ==\n"
            "  graph 0: 50 trials, 0 counterexamples\n"
            "  trial log: <out>/verify_theorem1.csv\n"
            "== theorem2 (1 graphs x 50 trials) ==\n"
            "  graph 0: agreement 50/50, discriminated 50, worst margin 4.113e-02\n"
            "  trial log: <out>/verify_theorem2.csv\n"
            "== corollary1 (1 graphs x 50 trials) ==\n"
            "  graph 0: 50 trials, 0 verdict mismatches\n"
            "  trial log: <out>/verify_corollary1.csv\n"
            "== corollary2 (1 graphs x 50 trials) ==\n"
            "  graph 0: subset violations 0, strictness witnesses 17, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  trial log: <out>/verify_corollary2.csv (+ 1 probe files)\n"
            "verification passed\n")

    def test_two_graph_trial_logs_unchanged(self, tmp_path, capsys, pinned_build):
        # sha256 of two graphs' trial logs as written while the trial log
        # and the verifiers' GNN builds each had two code paths
        code = main(["verify", "--theorem", "all", "--graphs", "2", "--seed", "5",
                     "--trials", "40", "--out", str(tmp_path)])
        assert code == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == {
            "verify_theorem1.csv":
                "62f3ab8dca63d7d9666567d8ff29ea87b64b659cf80ddfd8b27de66d89f164b5",
            "verify_theorem2.csv":
                "38b9568378af774f1331fc6ea199770da8a5a046f32692c011fb46426f8d935b",
            "verify_corollary1.csv":
                "7c0fa755af9073b10e75260c1a7e52765fe7ec265afb20ae9d6c55fd7db392b4",
            "verify_corollary2.csv":
                "592ef9cffe1c8fd1c3503451b7d5c79743e00de8d7c9b67d0584b651640afa59",
            "cor2_probe_g0.csv":
                "3868c6394bbd16bc245fc385678ea88f39ba749e3e7611afbdc57bae09e94ccd",
            "cor2_probe_g1.csv":
                "44712aae152be679b12dea936b98d3e284d910bca9ba535702d06ff11fd9e550",
        }, pinned_build
        assert capsys.readouterr().out.replace(str(tmp_path), "<out>") == (
            "== theorem1 (2 graphs x 40 trials) ==\n"
            "  graph 0: 40 trials, 0 counterexamples\n"
            "  graph 1: 40 trials, 0 counterexamples\n"
            "  trial log: <out>/verify_theorem1.csv\n"
            "== theorem2 (2 graphs x 40 trials) ==\n"
            "  graph 0: agreement 40/40, discriminated 40, worst margin 3.778e-02\n"
            "  graph 1: agreement 40/40, discriminated 40, worst margin 4.900e-02\n"
            "  trial log: <out>/verify_theorem2.csv\n"
            "== corollary1 (2 graphs x 40 trials) ==\n"
            "  graph 0: 40 trials, 0 verdict mismatches\n"
            "  graph 1: 40 trials, 0 verdict mismatches\n"
            "  trial log: <out>/verify_corollary1.csv\n"
            "== corollary2 (2 graphs x 40 trials) ==\n"
            "  graph 0: subset violations 0, strictness witnesses 14, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  graph 1: subset violations 0, strictness witnesses 14, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  trial log: <out>/verify_corollary2.csv (+ 2 probe files)\n"
            "verification passed\n")

    def test_corollary2_probe_files_unchanged(self, tmp_path, capsys, pinned_build):
        # sha256 of corollary 2's files as written while the probe's coarse
        # search formed a whole (n, 8001) grid and refined every draw; at 50
        # nodes about half the draws are inf and the scan spans several blocks
        code = main(["verify", "--theorem", "cor2", "--graphs", "3", "--trials", "40",
                     "--seed", "17", "--nodes", "50", "--cutoff", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == {
            "verify_corollary2.csv":
                "1a3bfabc2403e49724cd1277fb0da9d508cb7e30f76ac79dccc7334eab5f82fc",
            "cor2_probe_g0.csv":
                "82b45acdb65be7115b64efe3587cb8029df42dc5d1d00f30b220798193f89d24",
            "cor2_probe_g1.csv":
                "dda9a523bccca41cf5d51eb5ecc289b3d2a686ed56ec00edc56e1808f80e4993",
            "cor2_probe_g2.csv":
                "6610a7e8b21281eb9db87cd5bf6f3197b7720378e4701ab5e315cb0384b083f2",
        }, pinned_build
        assert capsys.readouterr().out.replace(str(tmp_path), "<out>") == (
            "== corollary2 (3 graphs x 40 trials) ==\n"
            "  graph 0: subset violations 0, strictness witnesses 14, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  graph 1: subset violations 0, strictness witnesses 14, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  graph 2: subset violations 0, strictness witnesses 14, "
            "probe residual > 1e-6 on 100/100 draws\n"
            "  trial log: <out>/verify_corollary2.csv (+ 3 probe files)\n"
            "verification passed\n")

    @pytest.mark.parametrize("flag, value", [("--graphs", "0"), ("--trials", "-3")])
    def test_rejects_nonpositive_counts(self, tmp_path, capsys, flag, value):
        code = main(["verify", "--theorem", "1", flag, value, "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "verification passed" not in captured.out
        assert captured.err == f"graphdisc: error: {flag} must be at least 1, got {value}\n"


class TestJobs:
    # a loaded graph is one graph, sent to the workers with every subspace
    @pytest.mark.parametrize("load, graphs, files", [(False, 2, 2 + 3 * 2 * 2),
                                                     (True, 1, 2 + 3 * 2 * 1)],
                             ids=["generated", "loaded"])
    def test_result_files_identical_across_jobs(self, tmp_path, capsys, load, graphs, files):
        source = ["--graphs", str(graphs)]
        if load:
            loaded = tmp_path / "graph.txt"
            assert run_tiny(tmp_path / "dump", "--dump-graph", loaded) == 0
            source += ["--load-graph", str(loaded)]
        outs, dumps = {}, {}
        for jobs in ("1", "2"):
            out, dumped = tmp_path / f"jobs{jobs}", tmp_path / f"graph_jobs{jobs}.txt"
            assert main(["run", "--subspace", "all", "--seed", "3", "--out", str(out),
                         *TINY, *source, "--jobs", jobs, "--dump-graph", str(dumped)]) == 0
            outs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
            # runs.csv's last column holds wall times; every other is compared
            runs = outs[jobs].pop("runs.csv").decode().splitlines()
            outs[jobs]["runs.csv"] = [line.rsplit(",", 1)[0] for line in runs]
            dumps[jobs] = dumped.read_bytes()
        assert "summary.csv" in outs["1"] and len(outs["1"]) == files
        assert outs["1"]["runs.csv"][0] == "subspace,model,graph,test_mse,il_constant"
        assert len(outs["1"]["runs.csv"]) == 1 + 3 * 2 * graphs
        assert outs["1"] == outs["2"]
        assert dumps["1"] == dumps["2"]
        if load:   # the loaded graph is written back byte for byte
            assert dumps["1"] == loaded.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run_tiny(out, "--jobs", jobs) == 2
        assert capsys.readouterr().err == f"graphdisc: error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_pool_no_larger_than_the_replicate_count(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_experiment imports the pool from concurrent.futures when it forks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert run_tiny(tmp_path / "one", "--jobs", "4") == 0
        assert sizes == []  # one replicate runs in this process
        assert run_tiny(tmp_path / "three", "--subspace", "all", "--jobs", "8") == 0
        assert sizes == [3]

    def test_one_worker_never_loads_multiprocessing(self, tmp_path):
        # a fresh interpreter, since this one may have loaded the pool already
        src = str(Path(graphdisc.cli.__file__).parents[1])
        script = (
            "import sys\n"
            "from graphdisc.cli import main\n"
            f"verify = main(['verify', '--theorem', 'all', '--graphs', '1', '--trials', '6', "
            f"'--nodes', '12', '--cutoff', '3', '--out', {str(tmp_path / 'verify')!r}])\n"
            f"run = main(['run', '--subspace', 'high', '--seed', '3', '--jobs', '1', "
            f"'--out', {str(tmp_path / 'run')!r}, *{TINY!r}])\n"
            "print(verify, run, 'multiprocessing' in sys.modules, "
            "'concurrent.futures.process' in sys.modules)\n")
        probe = subprocess.run([sys.executable, "-c", script],
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, check=True)
        assert probe.stdout.splitlines()[-1] == "0 0 False False"

    def test_summary_same_for_any_jobs_pinned_or_not(self, tmp_path):
        # fresh interpreters, since BLAS reads its thread count when numpy loads
        src = str(Path(graphdisc.cli.__file__).parents[1])
        unpinned = {k: v for k, v in os.environ.items()
                    if k not in graphdisc.experiment.BLAS_THREAD_VARS}
        pinned = dict(unpinned, **dict.fromkeys(graphdisc.experiment.BLAS_THREAD_VARS, "1"))
        summaries = set()
        for name, env in (("pinned", pinned), ("unpinned", unpinned)):
            for jobs in ("1", "2"):
                out = tmp_path / f"{name}{jobs}"
                subprocess.run([sys.executable, "-m", "graphdisc.cli", "run",
                                "--subspace", "all", "--seed", "3", "--out", str(out),
                                *TINY, "--graphs", "2", "--jobs", jobs],
                               env=dict(env, PYTHONPATH=src), capture_output=True, check=True)
                summaries.add((out / "summary.csv").read_bytes())
        assert len(summaries) == 1

    def test_blas_variables_restored_after_the_pool(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert run_tiny(tmp_path / "out", "--graphs", "2", "--jobs", "2") == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_program_from_stdin_cannot_start_workers(self, tmp_path):
        # spawned workers re-run the main program from its file; stdin has none
        src = str(Path(graphdisc.cli.__file__).parents[1])
        script = ("import sys\n"
                  "from graphdisc.cli import main\n"
                  f"sys.exit(main(['run', '--subspace', 'high', '--seed', '3', "
                  f"'--out', {str(tmp_path / 'out')!r}, *{TINY!r}, '--graphs', '2', "
                  "'--jobs', '2']))\n")
        probe = subprocess.run([sys.executable, "-"], input=script,
                               env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True)
        assert probe.returncode == 2
        assert probe.stderr == (
            "graphdisc: error: 2 worker processes cannot start: each re-runs the main "
            "program from its file, and <stdin> is not a file; run from a file or with "
            "one job\n")
        assert not (tmp_path / "out" / "summary.csv").exists()


def loaded_modules(script: str) -> set[str]:
    """The modules a fresh interpreter holds after running `script`."""
    src = str(Path(graphdisc.cli.__file__).parents[1])
    probe = subprocess.run([sys.executable, "-c", script + "\nimport sys; print(*sys.modules)"],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True)
    return set(probe.stdout.splitlines()[-1].split())


class TestImportBudget:
    """Each command loads the modules it calls, and importing the CLI loads
    only what every command uses."""

    def test_importing_the_cli(self):
        loaded = loaded_modules("import graphdisc.cli")
        assert loaded >= {"graphdisc.cli", "graphdisc.spectral", "graphdisc.gnn"}
        assert not loaded & {"graphdisc.training", "graphdisc.experiment",
                             "graphdisc.discriminability", "multiprocessing"}

    def test_verify(self, tmp_path):
        loaded = loaded_modules(
            "from graphdisc.cli import main\n"
            f"assert main(['verify', '--theorem', 'all', '--trials', '6', '--nodes', '12', "
            f"'--cutoff', '3', '--out', {str(tmp_path)!r}]) == 0")
        assert "graphdisc.discriminability" in loaded
        assert not loaded & {"graphdisc.training", "graphdisc.experiment"}

    def test_run_with_one_job(self, tmp_path):
        loaded = loaded_modules(
            "from graphdisc.cli import main\n"
            f"assert main(['run', '--subspace', 'high', '--seed', '3', '--jobs', '1', "
            f"'--out', {str(tmp_path)!r}, *{TINY!r}]) == 0")
        assert "graphdisc.training" in loaded
        assert "graphdisc.discriminability" not in loaded


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

    def test_corollary2_single_unprotected_mode_before_any_suite(self, tmp_path, capsys):
        code = main(["verify", "--theorem", "all", "--nodes", "2", "--cutoff", "1",
                     "--neighbors", "1", "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("graphdisc: error: corollary 2 needs more than one unprotected "
                       "mode, got --nodes 2 and --cutoff 1\n")
        assert list(tmp_path.glob("verify_*.csv")) == []

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

    @staticmethod
    def refuse_work(monkeypatch):
        """Make building a dataset or starting a worker pool fail the test."""
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        monkeypatch.setattr(graphdisc.experiment, "build_dataset", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bank_of_wrong_shape(self, tmp_path, capsys, monkeypatch, jobs):
        # two replicates, so that --jobs 2 would run them in worker processes;
        # the bank is refused before either starts
        path = tmp_path / "bank.txt"
        save_bank(np.eye(2), str(path))
        self.refuse_work(monkeypatch)
        code = run_tiny(tmp_path / "out", "--load-bank", path, "--graphs", "2", "--jobs", jobs)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: warm-start taps shape (2, 2) != (32, 3)\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_graph_of_wrong_size(self, tmp_path, capsys, monkeypatch, jobs):
        # every subspace, so that --jobs 2 would run three replicates in workers
        path = tmp_path / "graph.txt"
        save_graph(generate_geometric_graph(30, 5, seed=2), str(path))
        self.refuse_work(monkeypatch)
        code = run_tiny(tmp_path / "out", "--load-graph", path, "--subspace", "all",
                        "--jobs", jobs)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "graphdisc: error: loaded graph has 30 nodes, config expects 50\n"

    def test_load_model_with_load_bank(self, tmp_path, capsys, monkeypatch):
        # a wrong-shape bank next to a valid model: the pair is refused
        # before any replicate runs, rather than the bank being dropped
        mpath, bpath = tmp_path / "model.txt", tmp_path / "bank.txt"
        save_model(TrainableModel(np.full((32, 3), 0.1), np.full(32, 0.1), Nonlinearity.tanh()),
                   str(mpath))
        save_bank(np.eye(2), str(bpath))

        def no_training(*args):
            raise AssertionError("a replicate ran with both warm starts given")

        monkeypatch.setattr(graphdisc.experiment, "run_replicate", no_training)
        code = run_tiny(tmp_path / "out", "--load-model", mpath, "--load-bank", bpath)
        assert code == 2
        assert capsys.readouterr().err == (
            "graphdisc: error: --load-model and --load-bank both set the warm-start "
            "taps; give one of them\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigma", [Nonlinearity.leaky_rectifier(0.1), Nonlinearity.identity()],
                             ids=["leaky_rectifier", "identity"])
    def test_load_model_that_is_not_tanh(self, tmp_path, capsys, monkeypatch, sigma):
        # the model warm-starts a tanh GNN, and --save-model would write it
        # back as tanh: refused before any replicate runs or --out is made
        mpath = tmp_path / "model.txt"
        save_model(TrainableModel(np.full((32, 3), 0.1), np.full(32, 0.1), sigma), str(mpath))

        def no_training(*args):
            raise AssertionError("a replicate ran from a model that is not tanh")

        monkeypatch.setattr(graphdisc.experiment, "run_replicate", no_training)
        code = run_tiny(tmp_path / "out", "--load-model", mpath,
                        "--save-model", tmp_path / "saved.txt")
        assert code == 2
        assert capsys.readouterr().err == (
            f"graphdisc: error: {mpath}: the model's activation is {sigma.descriptor()}, "
            "but run trains a tanh GNN\n")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "saved.txt").exists()

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

    @pytest.mark.parametrize("flag", ["--dump-graph", "--save-bank", "--save-model"])
    def test_file_flag_into_missing_directory(self, tmp_path, capsys, flag):
        path = tmp_path / "nodir" / "file.txt"
        code = run_tiny(tmp_path / "out", flag, path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: cannot write {path}: No such file or directory\n"
        # the results are written before the file flags
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_run_result_file_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "out" / "summary.csv"
        path.mkdir(parents=True)
        code = run_tiny(tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == f"graphdisc: error: cannot write {path}: Is a directory\n"

    def test_verify_result_file_is_a_directory(self, tmp_path, capsys):
        path = tmp_path / "out" / "verify_theorem1.csv"
        path.mkdir(parents=True)
        code = main(["verify", "--theorem", "1", "--graphs", "1", "--trials", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"graphdisc: error: cannot write {path}: Is a directory\n"

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

    @pytest.mark.parametrize("command, name", [("run", "seed"), ("verify", "--seed"),
                                               ("gradcheck", "--seed")])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, command, name):
        monkeypatch.chdir(tmp_path)
        code = main([command, "--seed", "-1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"graphdisc: error: {name} must be nonnegative, got -1\n"
        assert list(tmp_path.iterdir()) == []   # rejected before any output

    def test_truncated_graph_file(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("")
        code = main(["run", "--load-graph", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"graphdisc: error: {path}:1: expected `n k seed`, found the end of the file\n"

    # numpy raises a MemoryError subclass for an array it cannot allocate;
    # these raise it where the oversize array would be made, allocating nothing
    @pytest.mark.parametrize("target, argv", [
        ("graphdisc.graphs._graph_from_positions", ["verify", "--nodes", "100000"]),
        ("graphdisc.experiment.generate_inputs", ["run", "--train", "100000000"]),
    ], ids=["verify", "run"])
    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, target, argv, message):
        def unallocatable(*args):
            raise MemoryError(message)

        monkeypatch.setattr(target, unallocatable)
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 2   # not 1, which reports a failed verification
        out, err = capsys.readouterr()
        assert "verification" not in out
        assert err == ("graphdisc: error: out of memory"
                       + (f": {message}" if message else "") + "\n")


class TestParser:
    def test_not_built_at_import(self):
        src = str(Path(graphdisc.cli.__file__).parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import graphdisc.cli as c; print(c._parser.cache_info().currsize)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
        assert probe.stdout == "0\n"

    def test_built_once_and_reused(self):
        parser = graphdisc.cli._parser()
        assert graphdisc.cli._parser() is parser
        first = parser.parse_args(["verify", "--trials", "3", "--theorem", "1"])
        again = parser.parse_args(["verify"])
        assert (first.trials, first.theorem) == (3, "1")
        assert (again.trials, again.theorem) == (200, "all")


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
