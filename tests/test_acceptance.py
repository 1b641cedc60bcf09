"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

The desk-preset experiment runs once per output directory through the real
CLI entry point; criteria 7 and 8 share those invocations.
"""

import time

import numpy as np
import pytest

import graphdisc.discriminability as disc
from graphdisc.cli import main
from graphdisc.filters import contract, freq_response, shift_powers
from graphdisc.gnn import Nonlinearity
from graphdisc.graphs import generate_geometric_graph, laplacian, normalize_support
from graphdisc.spectral import eig_sym
from graphdisc.training import init_model, model_backward

# the desk runs take most of the suite's time; `pytest -m "not slow"` leaves this file out
pytestmark = pytest.mark.slow


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Two CLI invocations of `run --preset desk --seed 7`, the second with
    two worker processes, so criterion 8 also compares worker counts."""
    dirs = []
    start = time.perf_counter()
    for name, jobs in (("desk_a", "1"), ("desk_b", "2")):
        out = tmp_path_factory.mktemp(name)
        code = main(["run", "--preset", "desk", "--seed", "7", "--jobs", jobs,
                     "--out", str(out)])
        assert code == 0
        dirs.append(out)
    return dirs, time.perf_counter() - start


def read_summary(path):
    rows = {}
    for line in path.read_text().strip().split("\n")[1:]:
        subspace, model, mean, ci, n_graphs = line.split(",")
        rows[(subspace, model)] = float(mean)
    return rows


class TestCriterion1SpectralEquivalence:
    def test_gft_of_filter_output(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(8, 51))
            g = generate_geometric_graph(n, min(5, n - 1),
                                         seed=int(rng.integers(0, 2 ** 62)))
            s = normalize_support(laplacian(g))
            spec = eig_sym(s)
            taps = rng.uniform(-1, 1, (1, int(rng.integers(1, 6))))
            x = rng.standard_normal(n)
            lhs = spec.eigenvectors.T @ contract(taps, shift_powers(s, x, taps.shape[1]))[0]
            rhs = freq_response(taps[0], spec.eigenvalues) * (spec.eigenvectors.T @ x)
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(x))
        elapsed = time.perf_counter() - start
        report("1 (spectral equivalence)",
               worst <= 1e-9 and elapsed < 10.0,
               f"worst residual {worst:.2e} over 100 triples in {elapsed:.1f} s")


class TestCriterion2Theorem1:
    def test_no_counterexamples(self, split_of):
        start = time.perf_counter()
        counterexamples = 0
        for graph_idx in range(10):
            split = split_of(generate_geometric_graph(20, 5, seed=300 + graph_idx), 4)
            rng = np.random.default_rng(400 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
            rep = disc.verify_theorem1(split, gnn, 100, rng)
            counterexamples += rep.counts["counterexamples"]
        elapsed = time.perf_counter() - start
        report("2 (theorem 1 property suite)",
               counterexamples == 0 and elapsed < 30.0,
               f"{counterexamples} counterexamples in 1000 pairs / 10 graphs, "
               f"{elapsed:.1f} s")


class TestCriterion3Theorem2:
    def test_identity_agreement(self, split_of):
        agreements = trials = 0
        for graph_idx in range(5):
            split = split_of(generate_geometric_graph(20, 5, seed=500 + graph_idx), 4)
            rng = np.random.default_rng(600 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.identity(), rng=rng)
            rep = disc.verify_theorem2_forward(split, gnn, 100, rng)
            agreements += rep.counts["agreements"]
            trials += rep.trials
        report("3a (theorem 2, identity regime)",
               trials == 500 and agreements == trials,
               f"{agreements}/{trials} verdict agreements")

    def test_leaky_constructed_pairs(self, split_of):
        worst = 0.0
        deviations = 0.0
        for graph_idx in range(5):
            split = split_of(generate_geometric_graph(20, 5, seed=700 + graph_idx), 4)
            rng = np.random.default_rng(800 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.leaky_rectifier(0.1),
                                    rng=rng)
            for _ in range(10):
                x, y = disc.constant_secant_pair(split, gnn, rng)
                scale = np.linalg.norm(x - y)
                judged = disc.judge_pairs(split, gnn, [x], [y])[0]
                assert judged.in_d_h[0] and judged.in_d_phi[0]
                worst = max(worst, float(judged.residual_low_gnn[0]) / scale)
                deviations = max(deviations, float(np.max(judged.max_deviation[0])))
        report("3b (theorem 2, constant-secant pairs)",
               worst <= 1e-9,
               f"worst relative residual {worst:.2e}, "
               f"worst secant deviation {deviations:.2e} over 50 pairs")

    def test_tanh_discrimination_rate(self, split_of):
        discriminated = trials = 0
        for graph_idx in range(10):
            split = split_of(generate_geometric_graph(20, 5, seed=900 + graph_idx), 4)
            rng = np.random.default_rng(1000 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
            rep = disc.verify_theorem2_forward(split, gnn, 100, rng)
            discriminated += rep.counts["discriminated"]
            trials += rep.trials
        rate = discriminated / trials
        report("3c (theorem 2, tanh discrimination)",
               trials == 1000 and rate >= 0.99,
               f"{discriminated}/{trials} pairs discriminated ({rate:.1%})")


class TestCriterion4Corollary1:
    def test_verdict_agreement(self, split_of):
        mismatches = trials = 0
        for graph_idx in range(5):
            split = split_of(generate_geometric_graph(20, 5, seed=1100 + graph_idx), 4)
            rng = np.random.default_rng(1200 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng,
                                    filters=3, high_gain=0.0)
            rep = disc.verify_corollary1(split, gnn, 100, rng)
            mismatches += rep.counts["verdict_mismatches"]
            trials += rep.trials
        report("4 (corollary 1)",
               trials == 500 and mismatches == 0,
               f"{mismatches} verdict mismatches in {trials} mixed trials")


class TestCriterion5Corollary2:
    def test_strictness_and_probe(self, split_of):
        witnesses_per_graph = []
        probe_total = probe_above = 0
        for graph_idx in range(10):
            split = split_of(generate_geometric_graph(20, 5, seed=1300 + graph_idx), 4)
            rng = np.random.default_rng(1400 + graph_idx)
            gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
            rep = disc.verify_corollary2(split, gnn, 200, rng,
                                         probe_draws=20)
            assert rep.counts["subset_violations"] == 0
            witnesses_per_graph.append(rep.counts["strictness_witnesses"])
            probe_total += rep.counts["probe_draws"]
            probe_above += rep.counts["probe_above_threshold"]
        rate = probe_above / probe_total
        report("5 (corollary 2)",
               min(witnesses_per_graph) >= 1 and rate >= 0.95,
               f"witnesses per graph min {min(witnesses_per_graph)}, "
               f"probe residual > 1e-6 on {probe_above}/{probe_total} draws")


class TestCriterion6Gradients:
    def test_finite_difference_check(self):
        start = time.perf_counter()
        rng = np.random.default_rng(4242)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(5, 21))
            g = generate_geometric_graph(n, min(3, n - 1), seed=trial)
            s = normalize_support(laplacian(g))
            sigma = [Nonlinearity.tanh(), Nonlinearity.identity(),
                     Nonlinearity.leaky_rectifier(0.2)][trial % 3]
            if trial % 4 == 0:
                sigma = Nonlinearity.identity()
            model = init_model(int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                               sigma, seed=trial)
            x = rng.standard_normal((4, n))
            y = np.sign(rng.standard_normal((4, n)))
            il_weight = 0.01 if trial % 2 else 0.0
            powers = shift_powers(s, x, model.taps.shape[1])
            result = model_backward(model, powers, y, il_weight)

            h = 1e-5
            for arr, grad in ((model.taps, result.grad_taps),
                              (model.readout, result.grad_readout)):
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = model_backward(model, powers, y, il_weight).objective
                    flat[i] = keep - h
                    down = model_backward(model, powers, y, il_weight).objective
                    flat[i] = keep
                    fd = (up - down) / (2 * h)
                    scale = max(abs(fd), abs(gflat[i]), 1e-6)
                    worst = max(worst, abs(fd - gflat[i]) / scale)
        elapsed = time.perf_counter() - start
        report("6 (gradient correctness)",
               worst <= 1e-4 and elapsed < 60.0,
               f"worst relative error {worst:.2e} over 20 configs "
               f"in {elapsed:.1f} s")


class TestCriterion7DeskExperiment:
    def test_high_gap_and_low_full_parity(self, desk_runs):
        (first, _), elapsed = desk_runs
        means = read_summary(first / "summary.csv")
        high_gap = means[("high", "filter_bank")] / means[("high", "gnn")] - 1
        low_gap = abs(means[("low", "filter_bank")] / means[("low", "gnn")] - 1)
        full_gap = abs(means[("full", "filter_bank")] / means[("full", "gnn")] - 1)
        passed = (high_gap >= 0.25 and low_gap <= 0.15 and full_gap <= 0.15
                  and elapsed / 2 < 15 * 60)
        report("7 (desk-scale reproduction)", passed,
               f"high gap {high_gap:+.1%} (floor 25%), low {low_gap:.1%}, "
               f"full {full_gap:.1%} (cap 15%), {elapsed/2:.0f} s per run")


class TestCriterion8Determinism:
    def test_byte_identical_summary(self, desk_runs):
        (first, second), _ = desk_runs
        a = (first / "summary.csv").read_bytes()
        b = (second / "summary.csv").read_bytes()
        report("8 (determinism)", a == b,
               f"summary.csv byte-identical across invocations ({len(a)} bytes)")
