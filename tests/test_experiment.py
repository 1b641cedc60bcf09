"""Input/target generation, dataset construction, replication, reports."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from graphdisc import experiment, training
from graphdisc.discriminability import judge_pairs
from graphdisc.errors import ConfigurationError, DegenerateInputError, ShapeError
from graphdisc.filters import bank_il_constant, contract, shift_powers
from graphdisc.experiment import (
    MODEL_NAMES,
    ExperimentConfig,
    ReplicateOutput,
    build_dataset,
    emit_report,
    generate_inputs,
    generate_target,
    run_experiment,
    run_replicate,
)
from graphdisc.gnn import Nonlinearity, SingleLayerGnn
from graphdisc.graphs import generate_geometric_graph, laplacian, normalize_support

N, SPLIT_K = 16, 12


@pytest.fixture(scope="module")
def s():
    return normalize_support(laplacian(generate_geometric_graph(N, 4, seed=61)))


@pytest.fixture(scope="module")
def split(s, split_of):
    return split_of(s, SPLIT_K)


def no_low_energy(split, d):
    """Whether d has no low-mode energy: judge_pairs's verdict on the pair
    (d, 0) under a one-filter all-ones bank."""
    ones = SingleLayerGnn(bank=np.ones((1, split.n)), sigma=Nonlinearity.identity())
    return bool(judge_pairs(split, ones, [d], [np.zeros(split.n)])[0].in_d_h[0])


def fixed_replicates(errors_by_mode):
    """ReplicateOutputs with the given test MSEs, (filter, gnn) per graph,
    and untrained models, in the given subspace then graph order."""
    model = training.init_model(4, 3, Nonlinearity.identity(), seed=0)
    trained = {name: training.TrainResult(model, 0.0, -1, []) for name in MODEL_NAMES}
    return tuple(ReplicateOutput(g, mode, None, 0.0, dict(zip(MODEL_NAMES, errors)), trained)
                 for mode, per_graph in errors_by_mode.items()
                 for g, errors in enumerate(per_graph))


def summary_rows(path):
    lines = path.read_text().strip().split("\n")[1:]
    return {(p[0], p[1]): (float(p[2]), float(p[3]), int(p[4]))
            for p in (line.split(",") for line in lines)}


def tiny_config(**overrides):
    base = dict(n=16, k=4, neighbors=4, features=4, taps=3, subspace="high",
                train=40, val=16, test=16, graphs=2, epochs=2, batch_size=8,
                seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateInput:
    def test_high_mode_has_no_low_energy(self, split):
        rng = np.random.default_rng(0)
        x = generate_inputs(split, "high", 1, rng)[0]
        assert no_low_energy(split, x)

    def test_low_mode_has_no_high_energy(self, split):
        rng = np.random.default_rng(1)
        x = generate_inputs(split, "low", 1, rng)[0]
        assert np.linalg.norm(split.v_high.T @ x) <= 1e-10

    @pytest.mark.parametrize("mode", ["low", "high", "full"])
    def test_unit_norm(self, split, mode):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = generate_inputs(split, mode, 1, rng)[0]
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_high_inputs_nondiscriminable_from_zero(self, split):
        # (x, 0) is a nondiscriminable pair relative to the split
        rng = np.random.default_rng(3)
        x = generate_inputs(split, "high", 1, rng)[0]
        assert no_low_energy(split, x - np.zeros(N))

    def test_unknown_mode(self, split):
        with pytest.raises(ConfigurationError):
            generate_inputs(split, "mid", 1, np.random.default_rng(4))


    @pytest.mark.parametrize("mode", ["low", "high", "full"])
    def test_batch_draws_the_numbers_of_single_draws(self, split, mode):
        # the batch is one (count, n) draw of the same stream; projection and
        # norms of a batch round differently from those of single rows
        batch = generate_inputs(split, mode, 6, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        singles = np.stack([generate_inputs(split, mode, 1, rng)[0] for _ in range(6)])
        np.testing.assert_allclose(batch, singles, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [12, 50, 120])
    @pytest.mark.parametrize("mode", ["low", "high", "full"])
    def test_bits_of_one_projection_and_division(self, split_of, mode, n):
        # the inputs are the draw's projection (w @ V) @ V^T divided by the
        # norms of all its rows at once, whatever the blocks of the in-place
        # division: 1 row, 7 rows, and more than one block
        split = split_of(generate_geometric_graph(n, 5, seed=n), n - n // 5)
        for count in (1, 7, training.chunk_rows(n * 8) + 3):
            w = np.random.default_rng(count).standard_normal((count, n))
            if mode != "full":
                basis = split.v_low if mode == "low" else split.v_high
                w = (w @ basis) @ basis.T
            expected = w / np.linalg.norm(w, axis=1, keepdims=True)
            x = generate_inputs(split, mode, count, np.random.default_rng(count))
            assert x.tobytes() == expected.tobytes(), (count, mode, n)

    def test_degenerate_draw_raises(self, split):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        with pytest.raises(DegenerateInputError):
            generate_inputs(split, "high", 3, ZeroRng())


class TestGenerateTarget:
    def test_identity_coefficients_give_sign(self, s):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(N)
        np.testing.assert_array_equal(generate_target(s, x, np.array([1.0, 0, 0])),
                                      np.where(x >= 0, 1.0, -1.0))

    def test_negated_coefficients_flip_nonzero_entries(self, s):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(N)  # no exact zeros almost surely
        pos = generate_target(s, x, np.array([1.0, 0, 0]))
        neg = generate_target(s, x, np.array([-1.0, 0, 0]))
        np.testing.assert_array_equal(neg, -pos)

    def test_sign_zero_convention(self, s):
        out = generate_target(s, np.zeros(N), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out, np.ones(N))

    def test_top_eigenvector_through_shift(self, s, split):
        # c = (0, 1, 0) applies one shift; the top eigenvalue is 1 > 0
        v_top = split.spectrum.eigenvectors[:, -1]
        out = generate_target(s, v_top, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out, np.where(v_top >= 0, 1.0, -1.0))

    def test_range(self, s, split):
        rng = np.random.default_rng(7)
        x = np.stack([generate_inputs(split, "full", 1, rng)[0] for _ in range(20)])
        y = generate_target(s, x, rng.uniform(-1, 1, 3))
        assert set(np.unique(y)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("shape", [(N,), (7, N)], ids=["1-D", "2-D"])
    def test_chunks_match_one_pass(self, s, monkeypatch, shape):
        # a budget of two and a half rows' powers: 7 rows go in chunks of
        # 2, 2, 2 and a ragged 1, each into the same powers buffer
        rng = np.random.default_rng(8)
        x, c = rng.standard_normal(shape), rng.uniform(-1, 1, 3)
        one_pass = np.where(contract(c, shift_powers(s, x, 3)) >= 0, 1.0, -1.0)
        calls = []

        def recording_shift_powers(s, x, n_taps, out=None):
            calls.append((len(x), out))
            return shift_powers(s, x, n_taps, out)

        monkeypatch.setattr(training, "CHUNK_BYTES", 5 * 3 * N * 8 // 2)
        monkeypatch.setattr(experiment, "shift_powers", recording_shift_powers)
        y = generate_target(s, x, c)
        assert [rows for rows, _ in calls] == ([1] if len(shape) == 1 else [2, 2, 2, 1])
        assert all(np.shares_memory(out, calls[0][1]) for _, out in calls)
        assert y.shape == shape
        np.testing.assert_array_equal(y, one_pass)

    def test_coefficient_count(self, s):
        with pytest.raises(ShapeError):
            generate_target(s, np.zeros(N), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("shape", [(N,), (7, N)], ids=["1-D", "2-D"])
    def test_int8_signs(self, s, shape):
        rng = np.random.default_rng(12)
        x, c = rng.standard_normal(shape), rng.uniform(-1, 1, 3)
        y = generate_target(s, x, c)
        assert y.dtype == np.int8 and y.shape == shape
        assert set(np.unique(y).tolist()) <= {-1, 1}
        np.testing.assert_array_equal(
            y, np.where(contract(c, shift_powers(s, x, 3)) >= 0, 1, -1))

    def test_sign_zero_is_int8_plus_one(self, s):
        out = generate_target(s, np.zeros((3, N)), np.array([0.5, -0.5, 0.25]))
        assert out.dtype == np.int8
        assert out.tobytes() == np.ones((3, N), dtype=np.int8).tobytes()


class TestBuildDataset:
    def test_sizes_and_disjoint_draws(self, s, split):
        rng = np.random.default_rng(8)
        ds = build_dataset(s, split, "full", (30, 10, 5),
                           np.array([0.5, -0.2, 0.1]), rng)
        assert ds.train[0].shape == (30, N) and ds.train[1].shape == (30, N)
        assert ds.val[0].shape == (10, N)
        assert ds.test[0].shape == (5, N)
        # i.i.d. draws: no duplicated inputs across the three parts
        stacked = np.vstack([ds.train[0], ds.val[0], ds.test[0]])
        assert np.unique(stacked, axis=0).shape[0] == 45

    def test_deterministic_given_seed(self, s, split):
        c = np.array([0.3, 0.3, 0.3])
        a = build_dataset(s, split, "high", (8, 4, 4), c,
                          np.random.default_rng(9))
        b = build_dataset(s, split, "high", (8, 4, 4), c,
                          np.random.default_rng(9))
        np.testing.assert_array_equal(a.train[0], b.train[0])
        np.testing.assert_array_equal(a.test[1], b.test[1])

    def test_targets_are_signs(self, s, split):
        ds = build_dataset(s, split, "low", (10, 4, 4),
                           np.array([0.1, 0.9, -0.4]), np.random.default_rng(10))
        for _, y in (ds.train, ds.val, ds.test):
            assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_labels_are_int8_signs(self, s, split):
        ds = build_dataset(s, split, "full", (10, 4, 4),
                           np.array([0.1, 0.9, -0.4]), np.random.default_rng(13))
        for x, y in ds:
            assert y.dtype == np.int8 and y.shape == x.shape
            assert set(np.unique(y).tolist()) <= {-1, 1}

    def test_labels_take_one_byte_per_entry(self, s, split):
        # the inputs keep 8 bytes an entry and the labels 1, so a built
        # dataset holds 9 bytes per entry; float64 labels would hold 16
        counts = (8000, 200, 200)
        tracemalloc.start()
        try:
            ds = build_dataset(s, split, "high", counts,
                               np.array([0.2, -0.5, 0.8]), np.random.default_rng(14))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = sum(counts) * N
        assert [y.nbytes for _, y in ds] == [count * N for count in counts]
        assert held <= 9 * entries + 2 ** 16

    @pytest.mark.parametrize("mode", ["low", "high", "full"])
    def test_peak_at_the_paper_shape(self, split_of, mode):
        # each set is one array: the draw is projected and normalized in
        # place, so besides it a build holds the draw's coordinates in the
        # basis, a block of the norms' two temporaries and the labels; the
        # slack covers generate_target's chunk temporaries past that
        n, counts = 50, (8000, 200, 200)
        s = normalize_support(laplacian(generate_geometric_graph(n, 5, seed=62)))
        split = split_of(s, 40)
        coordinates = {"low": 40, "high": 10, "full": 0}[mode]
        tracemalloc.start()
        try:
            build_dataset(s, split, mode, counts, np.array([0.2, -0.5, 0.8]),
                          np.random.default_rng(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = counts[0]
        bound = rows * n * 8 + rows * coordinates * 8 + 2 * training.CHUNK_BYTES + rows * n
        assert peak < bound + 2 ** 17

    def test_full_scale_counts(self, s, split):
        ds = build_dataset(s, split, "high", (8000, 200, 200),
                           np.array([0.2, -0.5, 0.8]), np.random.default_rng(11))
        assert ds.train[0].shape == (8000, N)
        assert ds.val[0].shape == (200, N)
        assert ds.test[0].shape == (200, N)


class TestRunExperiment:
    def test_smoke_untrained(self):
        config = tiny_config(graphs=1, epochs=0)
        replicates = run_experiment(config)
        assert len(replicates) == 1
        assert list(replicates[0].test_mse) == ["filter_bank", "gnn"]
        assert all(mse >= 0 for mse in replicates[0].test_mse.values())

    def test_identical_seeds_identical_reports(self):
        config = tiny_config()
        a = run_experiment(tiny_config())
        b = run_experiment(config)
        assert [out.test_mse for out in a] == [out.test_mse for out in b]

    def test_parallel_matches_sequential(self):
        a = run_experiment(tiny_config(), jobs=1)
        b = run_experiment(tiny_config(), jobs=2)
        assert [out.test_mse for out in a] == [out.test_mse for out in b]

    def test_both_models_share_data_and_init(self):
        replicates = run_experiment(tiny_config(graphs=1, epochs=0))
        trained = replicates[0].trained
        fb, gnn = trained["filter_bank"].model, trained["gnn"].model
        # untrained models keep their (identical) initializations
        np.testing.assert_array_equal(fb.taps, gnn.taps)
        np.testing.assert_array_equal(fb.readout, gnn.readout)

    def test_mean_reproduces_per_graph_values(self, tmp_path, capsys):
        errors = {"high": [(0.8, 0.5), (0.7, 0.25), (0.9, 0.75)], "low": [(0.3, 0.2)]}
        emit_report(fixed_replicates(errors), str(tmp_path))
        rows = summary_rows(tmp_path / "summary.csv")
        assert list(rows) == [(mode, name) for mode in errors for name in MODEL_NAMES]
        for mode, per_graph in errors.items():
            for i, name in enumerate(MODEL_NAMES):
                values = [e[i] for e in per_graph]
                mean, ci, count = rows[mode, name]
                assert mean == pytest.approx(np.mean(values), abs=1e-12)
                assert count == len(values)
                expected_ci = (1.96 * np.std(values, ddof=1) / np.sqrt(len(values))
                               if len(values) > 1 else 0.0)
                assert ci == pytest.approx(expected_ci, abs=1e-12)
        assert rows["low", "gnn"][1] == 0.0

    def test_split_uses_upper_band_size(self, split_of):
        config = tiny_config()
        assert config.split_index == 12
        replicates = run_experiment(tiny_config(graphs=1, epochs=0))
        split = split_of(replicates[0].graph, config.split_index)
        assert split.v_high.shape == (16, 4)

    def test_fixed_graph_requires_single_replicate(self):
        g = generate_geometric_graph(16, 4, seed=62)
        with pytest.raises(ConfigurationError):
            run_experiment(tiny_config(graphs=2), graph=g)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(k=16).validate()
        with pytest.raises(ConfigurationError):
            tiny_config(subspace="sideways").validate()
        with pytest.raises(ConfigurationError):
            tiny_config(graphs=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("neighbors", 16),
        ("neighbors", 20),
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("decay", 0.0),
        ("decay", 1.5),
        ("decay", float("nan")),
        ("il_weight", -0.01),
        ("il_weight", float("nan")),
        ("il_weight", float("inf")),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, kind", [
        ("n", 16.0, "an integer"),
        ("k", "4", "an integer"),
        ("graphs", True, "an integer"),
        ("seed", 0.5, "an integer"),
        ("train", np.float64(40), "an integer"),
        ("epochs", "2", "an integer"),
        ("il_weight", "0.01", "a real number"),
        ("subspace", 1, "a string"),
        ("subspace", None, "a string"),
    ])
    def test_rejects_wrong_type(self, field, value, kind):
        with pytest.raises(ConfigurationError) as info:
            tiny_config(**{field: value}).validate()
        assert str(info.value) == f"{field} must be {kind}, got {value!r}"

    def test_accepts_numpy_and_integer_values(self):
        tiny_config(n=np.int64(16), k=np.int32(4), graphs=np.int64(1), seed=np.uint8(5),
                    epochs=np.int64(2), learning_rate=np.float32(1e-3), decay=1,
                    il_weight=np.int64(0)).validate()

    def test_training_settings_are_declared_once(self):
        # the five training settings are TrainConfig's alone; seed is the
        # experiment's master seed, and train takes its own as an argument
        own = set(ExperimentConfig.__annotations__)
        trained = set(training.TrainConfig.__dataclass_fields__)
        assert issubclass(ExperimentConfig, training.TrainConfig)
        assert trained == {"epochs", "batch_size", "learning_rate", "decay", "il_weight"}
        assert not own & trained
        assert experiment.CONFIG_KEYS == own | trained and len(experiment.CONFIG_KEYS) == 16

    def test_accepts_range_edges(self):
        tiny_config(neighbors=15, decay=1.0, il_weight=0.0, learning_rate=1e-12).validate()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicate_error_keeps_type_and_names_replicate(self, jobs):
        with pytest.raises(ShapeError) as info:
            run_experiment(tiny_config(graphs=1, subspace="low"), jobs=jobs,
                           init_taps=np.zeros((2, 2)))
        assert str(info.value) == (
            "replicate low graph 0: warm-start taps shape (2, 2) != (4, 3)")


class TestRelativeGap:
    @pytest.mark.parametrize("errors,gap", [((0.5, 0.0), np.inf), ((0.0, 0.0), 0.0),
                                            ((0.75, 0.5), 0.5)])
    def test_gnn_mean_error_of_zero(self, tmp_path, capsys, errors, gap):
        emit_report(fixed_replicates({"high": [errors, errors]}), str(tmp_path))
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("relative gap")]
        assert len(lines) == 1 and lines[0].startswith("relative gap (high): filter/gnn - 1 = ")
        assert float(lines[0].rsplit(" ", 1)[1]) == gap


class TestRunReplicate:
    def test_warm_start_taps(self):
        config = tiny_config(graphs=1, epochs=0)
        taps = np.full((4, 3), 0.25)
        out = run_replicate(config, "high", 0, init_taps=taps)
        np.testing.assert_array_equal(out.trained["gnn"].model.taps, taps)

    def test_reproduces_recorded_trajectory(self, pinned_build):
        """Test MSEs and every history value of a small replicate, pinned
        exactly so that any change to the training arithmetic shows. They
        were recorded on x86-64 with numpy 2.4 and OpenBLAS 0.3.31; another
        numpy or BLAS build may round differently."""
        out = run_replicate(tiny_config(graphs=1, epochs=3), "high", 0)
        assert [out.test_mse[name] for name in MODEL_NAMES] == [0.7410533543261196,
                                                     0.7485598843542125], pinned_build
        lr = [0.001, 0.0009000000000000001, 0.0008100000000000001]
        expected = {
            "filter_bank": [
                (0, 0.7525055028581196, 0.7562438407401849, 1.2225307357514033, lr[0]),
                (1, 0.7453498905258764, 0.7497791054624213, 1.2359653096466154, lr[1]),
                (2, 0.7390107527508498, 0.744024828789722, 1.248075817821211, lr[2]),
            ],
            "gnn": [
                (0, 0.7597277708757265, 0.7634423035731479, 1.2225302466568904, lr[0]),
                (1, 0.7526644738153628, 0.7570513306996585, 1.235965541716032, lr[1]),
                (2, 0.7464081574158106, 0.7513451395672102, 1.248088818642891, lr[2]),
            ],
        }
        for name, rows in expected.items():
            got = [(r.epoch, r.train_loss, r.val_loss, r.il_constant, r.learning_rate)
                   for r in out.trained[name].history]
            assert got == rows, pinned_build

    def test_split_not_held_through_training(self, monkeypatch):
        # the split (its spectrum and both bases) is needed only for the
        # inputs, so nothing holds it once train starts
        splits, alive = [], []
        split_subspace, train = experiment.split_subspace, experiment.train

        def recording_split(*args):
            split = split_subspace(*args)
            splits.append(weakref.ref(split))
            return split

        def checking_train(*args):
            gc.collect()
            alive.append(splits[-1]() is not None)
            return train(*args)

        monkeypatch.setattr(experiment, "split_subspace", recording_split)
        monkeypatch.setattr(experiment, "train", checking_train)
        run_replicate(tiny_config(graphs=1), "high", 0)
        assert alive == [False]

    def test_warm_start_shape_checked(self):
        config = tiny_config(graphs=1)
        with pytest.raises(ShapeError):
            run_replicate(config, "high", 0, init_taps=np.zeros((2, 2)))


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path, capsys):
        emit_report((), str(tmp_path))
        summary = (tmp_path / "summary.csv").read_text()
        assert summary == "subspace,model,mean_error,ci_halfwidth,n_graphs\n"
        runs = (tmp_path / "runs.csv").read_text()
        assert runs == "subspace,model,graph,test_mse,il_constant,wall_time_s\n"

    def test_round_trip_means_exact(self, tmp_path, capsys):
        replicates = run_experiment(tiny_config(graphs=2, epochs=1))
        emit_report(replicates, str(tmp_path))
        rows = summary_rows(tmp_path / "summary.csv")
        for name in MODEL_NAMES:
            assert rows["high", name][0] == float(np.mean([out.test_mse[name]
                                                           for out in replicates]))

    def test_runs_rows_read_each_model(self, tmp_path, capsys):
        replicates = run_experiment(tiny_config(graphs=2, epochs=1))
        emit_report(replicates, str(tmp_path))
        rows = [line.split(",") for line in
                (tmp_path / "runs.csv").read_text().strip().split("\n")[1:]]
        runs = [(out, name) for out in replicates for name in MODEL_NAMES]
        assert [r[:3] for r in rows] == [["high", name, str(out.graph_index)]
                                         for out, name in runs]
        assert [float(r[3]) for r in rows] == [out.test_mse[name] for out, name in runs]
        assert [float(r[4]) for r in rows] == [bank_il_constant(out.trained[name].model.taps)
                                               for out, name in runs]
        assert [float(r[5]) for r in rows] == pytest.approx([out.train_time for out, _ in runs],
                                                            abs=1e-6)

    def test_column_order_and_history_files(self, tmp_path, capsys):
        emit_report(run_experiment(tiny_config(graphs=1, epochs=2)), str(tmp_path))
        runs_header = (tmp_path / "runs.csv").read_text().split("\n")[0]
        assert runs_header == "subspace,model,graph,test_mse,il_constant,wall_time_s"
        history = tmp_path / "history_high_gnn_g0.csv"
        assert history.exists()
        assert history.read_text().split("\n")[0] == \
            "epoch,train_loss,val_loss,il_constant,learning_rate"
        out = capsys.readouterr().out
        assert "relative gap" in out and "subspace" in out
