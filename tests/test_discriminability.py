"""Nondiscriminable-set membership, secants, and the statement verifiers."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

import graphdisc.discriminability as disc
from graphdisc.errors import ConfigurationError, NumericalError
from graphdisc.filters import freq_response, zero_high_response
from graphdisc.gnn import Nonlinearity, SingleLayerGnn, bank_forward
from graphdisc.graphs import generate_geometric_graph

N, K = 20, 4


@pytest.fixture(scope="module")
def split(split_of):
    return split_of(generate_geometric_graph(N, 5, seed=41), K)


def judge_one(split, gnn, x, y):
    """judge_pairs's Trials for the single pair (x, y), a stack of one."""
    return disc.judge_pairs(split, gnn, [x], [y])[0]


def nul_vk(split, d):
    """(flag, ||V_low^T d||) for the pair (d, 0) under a one-filter all-ones
    bank, whose filtered difference is d itself up to rounding."""
    ones = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.identity())
    judged = judge_one(split, ones, d, np.zeros(N))
    return bool(judged.in_d_h[0]), float(judged.residual_low_filter[0])


class TestInNulVk:
    def test_high_eigenvector_inside(self, split):
        flag, residual = nul_vk(split, split.spectrum.eigenvectors[:, -1])
        assert flag and residual <= 1e-10

    def test_low_eigenvector_outside(self, split):
        flag, _ = nul_vk(split, split.spectrum.eigenvectors[:, 0])
        assert not flag

    def test_mixed_vector_residual(self, split):
        d = split.spectrum.eigenvectors[:, 0] + split.spectrum.eigenvectors[:, -1]
        flag, residual = nul_vk(split, d)
        assert not flag
        assert residual == pytest.approx(1.0, abs=1e-10)

    def test_bits_of_the_norm_form(self, split):
        # the stacked test gives one vector the bits of np.linalg.norm
        rng = np.random.default_rng(14)
        for exponent in rng.uniform(-5, 5, size=50):
            d = rng.standard_normal(N) * 10.0 ** exponent
            residual = float(np.linalg.norm(split.v_low.T @ d))
            flag = residual <= 1e-8 * max(float(np.linalg.norm(d)), disc.SCALE_FLOOR)
            flags, residuals, _ = disc._nul_vk_rows(split, d[None])
            assert (bool(flags[0]), float(residuals[0])) == (flag, residual)


class TestPairInDH:
    @pytest.fixture()
    def gnn(self, split):
        rng = np.random.default_rng(0)
        bank = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng).bank
        return SingleLayerGnn(bank=bank, sigma=Nonlinearity.identity())

    def test_equal_signals(self, split, gnn):
        x = np.random.default_rng(1).standard_normal(N)
        judged = judge_one(split, gnn, x, x)
        assert judged.in_d_h[0] and judged.residual_low_filter[0] <= 1e-12

    def test_high_mode_perturbation_inside(self, split, gnn):
        x = np.random.default_rng(2).standard_normal(N)
        y = x + split.spectrum.eigenvectors[:, K]   # first unprotected mode
        assert judge_one(split, gnn, x, y).in_d_h[0]

    def test_low_mode_perturbation_outside(self, split, gnn):
        x = np.random.default_rng(3).standard_normal(N)
        y = x + split.spectrum.eigenvectors[:, 0]
        assert not judge_one(split, gnn, x, y).in_d_h[0]

    def test_direct_and_filtered_agree_on_random_pairs(self, split, gnn):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x, y = rng.standard_normal((2, N))
            flag = judge_one(split, gnn, x, y).in_d_h[0]
            direct, _ = nul_vk(split, x - y)
            assert flag == direct

    def test_vanishing_low_response_raises_inconsistency(self, split):
        # a bank that is blind to the lowest mode breaks the linearity
        # argument; the implementation must flag it instead of answering
        response = np.ones(N)
        response[0] = 0.0
        gnn = SingleLayerGnn(bank=np.array([response]), sigma=Nonlinearity.identity())
        x = np.zeros(N)
        y = split.spectrum.eigenvectors[:, 0]
        with pytest.raises(NumericalError):
            judge_one(split, gnn, x, y)


class TestPairInDPhi:
    def test_equal_signals(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(),
                                rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal(N)
        judged = judge_one(split, gnn, x, x)
        assert judged.in_d_phi[0] and judged.in_d_h[0]
        assert judged.residual_low_gnn[0] <= 1e-12

    def test_identity_sigma_matches_bank_verdict(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.identity(),
                                rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        for trial in range(20):
            if trial % 2 == 0:
                (x,), (y,) = disc.draw_pairs(split, rng, 1, (disc.INSIDE,))
            else:
                x, y = rng.standard_normal((2, N))
            judged = judge_one(split, gnn, x, y)
            assert judged.in_d_phi[0] == judged.in_d_h[0]

    def test_tanh_discriminates_high_perturbations(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(),
                                rng=np.random.default_rng(9))
        # 50 pairs drawn in one stack: the pairs of 50 draws of one
        x, y = disc.draw_pairs(split, np.random.default_rng(10), 50, (disc.INSIDE,))
        judged = disc.judge_pairs(split, gnn, x, y)[0]
        assert judged.in_d_h.all()
        assert np.count_nonzero(~judged.in_d_phi) >= 48


class TestSamplePair:
    def test_difference_in_null_space(self, split):
        rng = np.random.default_rng(11)
        (x,), (y,) = disc.draw_pairs(split, rng, 1, (disc.INSIDE,))
        flag, residual = nul_vk(split, x - y)
        assert flag and residual <= 1e-10

    def test_delta_recovery(self, split):
        class Recorder:
            def __init__(self):
                self.rng = np.random.default_rng(13)
                self.draws = []

            def standard_normal(self, size):
                out = self.rng.standard_normal(size)
                self.draws.append(out)
                return out

        rec = Recorder()
        (x,), (y,) = disc.draw_pairs(split, rec, 1, (disc.INSIDE,))
        assert [draw.size for draw in rec.draws] == [2 * N - K]   # x, then delta
        np.testing.assert_array_equal(x, rec.draws[0][:N])
        delta_drawn = rec.draws[0][N:]
        recovered = split.v_high.T @ (y - x)
        np.testing.assert_allclose(recovered, delta_drawn, atol=1e-12)


def secants_one(split, gnn, x, y):
    """judge_pairs's (F, n) secants for the single pair (x, y)."""
    return disc.judge_pairs(split, gnn, [x], [y])[1][0]


class TestSecantReport:
    def test_identity_sigma_unit_secants(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.identity(),
                                rng=np.random.default_rng(14))
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal((2, N))
        judged, secants = disc.judge_pairs(split, gnn, [x], [y])
        np.testing.assert_allclose(secants[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(judged.max_deviation[0], 0.0, atol=1e-12)

    def test_tanh_symmetric_secant_value(self, split):
        # identity filter maps x to itself, so the secant between +1 and -1
        # is (tanh(1) - tanh(-1)) / 2 = tanh(1)
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        x = np.ones(N)
        y = -np.ones(N)
        np.testing.assert_allclose(secants_one(split, gnn, x, y), math.tanh(1.0), atol=1e-9)
        assert math.tanh(1.0) == pytest.approx(0.7615941559, abs=1e-9)

    def test_equal_points_use_derivative(self, split):
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        x = np.zeros(N)
        np.testing.assert_allclose(secants_one(split, gnn, x, x), 1.0, atol=1e-12)

    def test_high_response_flags(self, split):
        bank = np.array((zero_high_response(split, np.ones(K)), np.ones(N)))
        np.testing.assert_array_equal(disc._high_response_flags(bank, K), [False, True])

    def test_secant_bounds_strictly_monotone(self, split):
        rng = np.random.default_rng(17)
        for sigma in (Nonlinearity.tanh(), Nonlinearity.leaky_rectifier(0.3)):
            gnn = disc.verifier_gnn(split, sigma, rng=rng)
            for _ in range(10):
                x, y = rng.standard_normal((2, N))
                secants = secants_one(split, gnn, x, y)
                assert np.all(secants > 0.0)
                assert np.all(secants <= 1.0 + 1e-12)


class TestVerifyTheorem1:
    def test_no_counterexamples_tanh(self, split):
        rng = np.random.default_rng(18)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem1(split, gnn, 100, rng)
        assert report.counts["counterexamples"] == 0
        assert all(len(column) == 100 for column in report.columns)
        assert not report.columns.in_d_h.any()

    def test_no_counterexamples_identity(self, split):
        rng = np.random.default_rng(19)
        gnn = disc.verifier_gnn(split, Nonlinearity.identity(), rng=rng)
        report = disc.verify_theorem1(split, gnn, 50, rng)
        assert report.counts["counterexamples"] == 0

    def test_low_mode_difference_discriminated_by_both(self, split):
        rng = np.random.default_rng(20)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        x = rng.standard_normal(N)
        y = x + 0.5 * split.spectrum.eigenvectors[:, 0]
        judged = judge_one(split, gnn, x, y)
        assert not judged.in_d_h[0] and not judged.in_d_phi[0]

    def test_requires_zero_high_first_filter(self, split):
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_theorem1(split, gnn, 5, np.random.default_rng(21))

    @pytest.mark.parametrize("high, accepted", [(1e-9, False), (1e-12, True)])
    def test_zero_high_tolerance(self, split, high, accepted):
        # disc.ZERO_HIGH_TOL = 1e-10 lies between the two gains
        first = zero_high_response(split, np.ones(K))
        first[K:] = high
        gnn = SingleLayerGnn(bank=(first, np.ones(N)), sigma=Nonlinearity.tanh())
        rng = np.random.default_rng(36)
        if accepted:
            report = disc.verify_theorem1(split, gnn, 5, rng)
            assert report.counts["counterexamples"] == 0
        else:
            with pytest.raises(ConfigurationError, match="must vanish above the cutoff"):
                disc.verify_theorem1(split, gnn, 5, rng)

    def test_fir_bank_accepted(self, split_of):
        # an interpolating FIR filter that vanishes on the unprotected
        # eigenvalues is numerically, not exactly, zero there; a small
        # well-separated spectrum keeps the interpolation conditioned
        from graphdisc.graphs import SupportMatrix

        lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        split = split_of(SupportMatrix(np.diag(lam)), 2)
        targets = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        coeffs = np.linalg.solve(np.vander(lam, 5, increasing=True), targets)
        gnn = SingleLayerGnn(bank=(freq_response(coeffs, split.spectrum.eigenvalues),
                                   np.ones(5)), sigma=Nonlinearity.tanh())
        report = disc.verify_theorem1(split, gnn, 10, np.random.default_rng(22))
        assert report.counts["counterexamples"] == 0


class TestVerifyTheorem2:
    def test_identity_sigma_full_agreement(self, split):
        rng = np.random.default_rng(23)
        gnn = disc.verifier_gnn(split, Nonlinearity.identity(), rng=rng)
        report = disc.verify_theorem2_forward(split, gnn, 100, rng)
        assert report.counts["agreements"] == report.trials
        assert report.counts["discriminated"] == 0    # linear case keeps D_H pairs

    def test_tanh_discriminates_most_pairs(self, split):
        rng = np.random.default_rng(24)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem2_forward(split, gnn, 100, rng)
        assert report.counts["agreements"] == report.trials
        assert report.counts["discriminated"] >= 99

    def test_constructed_constant_secant_pair(self, split):
        rng = np.random.default_rng(25)
        gnn = disc.verifier_gnn(split, Nonlinearity.leaky_rectifier(0.1), rng=rng)
        x, y = disc.constant_secant_pair(split, gnn, rng)
        scale = np.linalg.norm(x - y)
        judged, secants = disc.judge_pairs(split, gnn, [x], [y])
        assert judged.in_d_h[0] and judged.in_d_phi[0]
        assert judged.residual_low_gnn[0] <= 1e-9 * scale
        np.testing.assert_allclose(secants[0], 1.0, atol=1e-12)

    def test_needs_two_filters(self, split):
        gnn = SingleLayerGnn(bank=np.array([zero_high_response(split, np.ones(K))]),
                             sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_theorem2_forward(split, gnn, 5,
                                         np.random.default_rng(26))


class TestVerifyCorollary1:
    def test_verdicts_always_agree(self, split):
        rng = np.random.default_rng(27)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng, high_gain=0.0)
        report = disc.verify_corollary1(split, gnn, 90, rng)
        assert report.counts["verdict_mismatches"] == 0
        flags = set(zip(report.columns.in_d_h.tolist(), report.columns.in_d_phi.tolist()))
        assert (True, True) in flags and (False, False) in flags

    def test_bank_annihilates_difference_before_sigma(self, split):
        # for a D_H pair the features of x and y coincide to 1e-12
        rng = np.random.default_rng(28)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng, high_gain=0.0)
        (x,), (y,) = disc.draw_pairs(split, rng, 1, (disc.INSIDE,))
        diff = (gnn.sigma.eval(bank_forward(gnn.bank, split.spectrum, x))
                - gnn.sigma.eval(bank_forward(gnn.bank, split.spectrum, y)))
        assert np.max(np.abs(diff)) <= 1e-12

    def test_rejects_bank_with_high_response(self, split):
        bank = (zero_high_response(split, np.ones(K)), np.ones(N))
        gnn = SingleLayerGnn(bank=bank, sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_corollary1(split, gnn, 5, np.random.default_rng(29))


class TestVerifyCorollary2:
    def test_report(self, split):
        rng = np.random.default_rng(30)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_corollary2(split, gnn, 60, rng, probe_draws=40)
        assert report.counts["subset_violations"] == 0
        assert report.counts["strictness_witnesses"] >= 1
        assert report.counts["probe_above_threshold"] >= 0.95 * report.counts["probe_draws"]
        assert report.passed

    def test_requires_tanh(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.identity(),
                                rng=np.random.default_rng(31))
        with pytest.raises(ConfigurationError):
            disc.verify_corollary2(split, gnn, 5, np.random.default_rng(32))

    def test_zero_secant_draw_is_inf(self, split):
        # uniform(0, 1) can return exactly 0; only e = 0 solves the secant
        # equation at b = 0, so no node has a nonzero offset
        class ZeroSecant:
            def __init__(self):
                self.rng = np.random.default_rng(35)

            def standard_normal(self, size):
                return self.rng.standard_normal(size)

            def uniform(self, low, high):
                return 0.0

        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(36))
        assert disc.overdetermined_probe(split, gnn, 1, ZeroSecant()) == math.inf
        report = disc.verify_corollary2(split, gnn, 5, ZeroSecant(), probe_draws=3)
        assert report.counts["probe_above_threshold"] == 3
        assert np.all(np.isinf(report.probe_residuals))

    @pytest.mark.parametrize("draws", [0, -3, 2.5, True])
    def test_rejects_fewer_than_one_probe_draw(self, split, draws):
        # 2.5 and True pass `< 1`; they too are refused before any draw
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(37))
        rng = np.random.default_rng(38)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError) as info:
            disc.verify_corollary2(split, gnn, 5, rng, probe_draws=draws)
        rule = "be an integer" if isinstance(draws, (bool, float)) else "be at least 1"
        assert str(info.value) == f"probe_draws must {rule}, got {draws!r}"
        assert rng.bit_generator.state == state

    def test_requires_multiple_high_modes(self, split_of):
        split = split_of(generate_geometric_graph(6, 2, seed=43), 5)   # single unprotected mode
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(),
                                rng=np.random.default_rng(33))
        with pytest.raises(ConfigurationError):
            disc.verify_corollary2(split, gnn, 5, np.random.default_rng(34))


def _rows(trials):
    """The trial log's rows, one tuple per trial, from a verifier's Trials."""
    columns = (trials.in_d_h, trials.in_d_phi, trials.residual_low_filter,
               trials.residual_low_gnn, trials.max_deviation.max(axis=1))
    return list(zip(*(column.tolist() for column in columns)))


def _per_pair_rows(split, gnn, pairs):
    """The trial rows judge_pairs gives each pair alone, as a stack of one."""
    return [row for x, y in pairs for row in _rows(judge_one(split, gnn, x, y))]


def _drawn_pairs(split, suite, rng, trials):
    """The pairs a verifier draws from rng, one standard_normal call per
    array in the documented order: theorem 2 draws pairs inside D_H,
    theorem 1 pairs outside it, and the corollaries cycle inside, outside,
    identical. Inside: x, then delta, and y = x + V_high delta. Outside: x,
    then y, redrawn while x - y has no low-mode energy, at most 100 draws.
    Identical: x alone."""
    pairs = []
    for trial in range(trials):
        mode = {"theorem1": 1, "theorem2": 0}.get(suite, trial % 3)
        if mode == 0:
            x = rng.standard_normal(N)
            pairs.append((x, x + split.v_high @ rng.standard_normal(N - K)))
        elif mode == 1:
            for _ in range(100):
                x = rng.standard_normal(N)
                y = rng.standard_normal(N)
                d = x - y
                if (np.linalg.norm(split.v_low.T @ d)
                        > disc.MEMBERSHIP_TOL * max(np.linalg.norm(d), disc.SCALE_FLOOR)):
                    break
            else:
                raise NumericalError("no discriminable pair in 100 draws")
            pairs.append((x, y))
        else:
            x = rng.standard_normal(N)
            pairs.append((x, x))
    return pairs


SIGMAS = {"tanh": Nonlinearity.tanh(), "identity": Nonlinearity.identity(),
          "leaky": Nonlinearity.leaky_rectifier(0.1)}
STACKED_CASES = [(suite, sigma) for suite in ("theorem1", "theorem2", "corollary1")
                 for sigma in SIGMAS] + [("corollary2", "tanh")]


class TestStackedTrials:
    """A verifier judges all its pairs in stacked passes; every row must
    carry the bits judge_pairs gives its pair alone, as a stack of one."""

    @pytest.mark.parametrize("suite, sigma", STACKED_CASES)
    def test_rows_equal_per_pair_rows(self, split, suite, sigma):
        gnn = disc.verifier_gnn(split, SIGMAS[sigma], rng=np.random.default_rng(40),
                                high_gain=0.0 if suite == "corollary1" else 1.0)
        verify = {"theorem1": disc.verify_theorem1,
                  "theorem2": disc.verify_theorem2_forward,
                  "corollary1": disc.verify_corollary1,
                  "corollary2": lambda *a: disc.verify_corollary2(*a, probe_draws=5)}[suite]
        report = verify(split, gnn, 30, np.random.default_rng(41))
        pairs = _drawn_pairs(split, suite, np.random.default_rng(41), 30)
        assert _rows(report.columns) == _per_pair_rows(split, gnn, pairs)

        if suite == "theorem2":
            # the per-trial margin loop the stacked counts replace
            high = disc._high_response_flags(gnn.bank, K)
            agreements, worst = 0, math.inf
            for (x, y), (_, in_d_phi, _, residual_low_gnn, _) in zip(pairs,
                                                                     _rows(report.columns)):
                considered = judge_one(split, gnn, x, y).max_deviation[0, high]
                agreements += in_d_phi == bool(np.all(considered <= disc.SECANT_TOL))
                margin_phi = abs(residual_low_gnn / max(float(np.linalg.norm(x - y)),
                                                        disc.SCALE_FLOOR) - disc.MEMBERSHIP_TOL)
                worst = min(worst, margin_phi,
                            float(np.min(np.abs(considered - disc.SECANT_TOL))))
            counts = report.counts
            assert (counts["agreements"], counts["worst_margin"]) == (agreements, worst)
            assert counts["discriminated"] == sum(not in_d_phi
                                                  for _, in_d_phi, *_ in _rows(report.columns))

    def test_zero_trials(self, split):
        tanh = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(42))
        flat = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(42),
                                 high_gain=0.0)
        rng = np.random.default_rng(43)
        # at zero trials the pass rules hold vacuously, except corollary 2's,
        # which asks for at least one strictness witness
        report = disc.verify_theorem1(split, tanh, 0, rng)
        assert _rows(report.columns) == [] and report.passed is True
        report = disc.verify_theorem2_forward(split, tanh, 0, rng)
        assert _rows(report.columns) == [] and report.counts["agreements"] == 0
        assert report.counts["agreements"] == report.trials
        assert report.counts["worst_margin"] == math.inf and report.passed is True
        report = disc.verify_corollary1(split, flat, 0, rng)
        assert _rows(report.columns) == [] and report.passed is True
        report = disc.verify_corollary2(split, tanh, 0, rng, probe_draws=3)
        assert _rows(report.columns) == [] and report.counts["strictness_witnesses"] == 0
        assert report.passed is False


class TestJudgePairs:
    """A pair judged alone, as a stack of one, carries the bits it carries
    inside a stack of T: the bank_forward contract."""

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_alone_equals_in_stack(self, split, sigma):
        gnn = disc.verifier_gnn(split, SIGMAS[sigma], rng=np.random.default_rng(46))
        x, y = disc.draw_pairs(split, np.random.default_rng(47), 12, disc.MIXED)
        stacked, stacked_secants = disc.judge_pairs(split, gnn, x, y)
        # inside, outside, identical, ...: only the outside pairs leave D_H
        assert stacked.in_d_h.tolist() == [t % 3 != 1 for t in range(12)]
        for t in range(12):
            alone, alone_secants = disc.judge_pairs(split, gnn, x[t:t + 1], y[t:t + 1])
            for name, column in stacked._asdict().items():
                assert getattr(alone, name)[0].tobytes() == column[t].tobytes(), (t, name)
            assert alone_secants[0].tobytes() == stacked_secants[t].tobytes(), t

    @pytest.mark.parametrize("kind", ["INSIDE", "OUTSIDE", "SAME"])
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_secants_equal_the_where_formula(self, split, sigma, kind):
        # judge_pairs forms the activations and secants in place; they keep
        # the bits of the out-of-place np.where and abs formula below
        gnn = disc.verifier_gnn(split, SIGMAS[sigma], filters=3,
                                rng=np.random.default_rng(52))
        x, y = disc.draw_pairs(split, np.random.default_rng(53), 64,
                               (getattr(disc, kind),))
        judged, judged_secants = disc.judge_pairs(split, gnn, x, y)
        fx, fy = (bank_forward(gnn.bank, split.spectrum, s) for s in (x, y))
        gx = gnn.sigma.eval(fx.copy())
        gnn_diff = gx - gnn.sigma.eval(fy.copy())
        diff = fx - fy
        equal = np.abs(diff) < disc.SECANT_EQUAL_POINTS
        secants = np.where(equal, gnn.sigma.output_derivative(gx.copy()),
                           gnn_diff / np.where(equal, 1.0, diff))
        max_dev = np.max(np.abs(secants - secants.mean(axis=-1, keepdims=True)), axis=-1)
        low_gnn = disc._dot_norms(disc._axis_norms(gnn_diff @ split.v_low))
        assert judged_secants.tobytes() == secants.tobytes()
        assert judged.max_deviation.tobytes() == max_dev.tobytes()
        assert judged.residual_low_gnn.tobytes() == low_gnn.tobytes()
        if kind == "SAME":
            assert equal.all()

    def test_peak_memory_in_stack_arrays(self, split_of):
        # F = 32 filters on n = 50 nodes, split at index 40: judging T pairs
        # peaks at under 4.25 (T, F, n) float64 arrays: the (T, F, 40)
        # low-mode projection is squared in place
        n_pairs, n_filters, n = 1024, 32, 50
        split = split_of(generate_geometric_graph(n, 5, seed=3), 40)
        rng = np.random.default_rng(54)
        gnn = SingleLayerGnn(rng.uniform(0.5, 1.5, (n_filters, n)), Nonlinearity.tanh())
        x, y = disc.draw_pairs(split, rng, n_pairs, disc.MIXED)
        tracemalloc.start()
        try:
            disc.judge_pairs(split, gnn, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * n_pairs * n_filters * n * 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_signal_not_finite(self, split, bad, side):
        # a NaN would give NaN residuals, which would be judged discriminable
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(55))
        pair = {"x": np.random.default_rng(57).standard_normal((3, N)),
                "y": np.random.default_rng(58).standard_normal((3, N))}
        pair[side][1, 5] = bad
        with pytest.raises(ConfigurationError, match="signal stacks must be finite"):
            disc.judge_pairs(split, gnn, pair["x"], pair["y"])


CYCLES = {"theorem1": (disc.OUTSIDE,), "theorem2": (disc.INSIDE,),
          "corollary1": disc.MIXED}


class ScriptedNormals:
    """A generator stand-in whose standard_normal hands out a fixed stream
    in order; records the size of each call."""

    def __init__(self, stream):
        self.stream = stream
        self.used = 0
        self.sizes = []

    def standard_normal(self, size):
        out = self.stream[self.used:self.used + size].copy()
        assert out.size == size, "stream exhausted"
        self.used += size
        self.sizes.append(size)
        return out


class TestDrawPairs:
    """A suite's pairs come from one standard_normal call, cut in the order
    of plain one-array-at-a-time draws."""

    @pytest.mark.parametrize("suite", CYCLES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_one_by_one_draws(self, split, suite, seed):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        x, y = disc.draw_pairs(split, rng, 31, CYCLES[suite])
        pairs = _drawn_pairs(split, suite, reference, 31)
        np.testing.assert_array_equal(x, [p[0] for p in pairs])
        np.testing.assert_array_equal(y, [p[1] for p in pairs])
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_one_call(self, split):
        normals = ScriptedNormals(np.random.default_rng(3).standard_normal(1000))
        disc.draw_pairs(split, normals, 7, disc.MIXED)
        # kinds inside, outside, identical, inside, outside, identical, inside
        assert normals.sizes == [3 * (2 * N - K) + 2 * 2 * N + 2 * N]

    @pytest.mark.parametrize("suite", ["theorem1", "corollary1"])
    @pytest.mark.parametrize("rejections", [1, 2, 99])
    def test_rejected_pair_redrawn_from_the_next_normals(self, split, suite, rejections):
        base = np.random.default_rng(4).standard_normal(2000)
        first = 0 if suite == "theorem1" else 2 * N - K   # where the first outside pair starts
        equal = np.tile(base[:N], 2 * rejections)         # x == y, rejected each time
        stream = np.concatenate((base[:first], equal, base[first:]))
        normals = ScriptedNormals(stream)
        x, y = disc.draw_pairs(split, normals, 8, CYCLES[suite])

        redraw = first + 2 * N * rejections
        t = 0 if suite == "theorem1" else 1
        np.testing.assert_array_equal(x[t], stream[redraw:redraw + N])
        np.testing.assert_array_equal(y[t], stream[redraw + N:redraw + 2 * N])
        assert normals.sizes[1:] == [2 * N] * rejections
        reference = ScriptedNormals(stream)
        pairs = _drawn_pairs(split, suite, reference, 8)
        np.testing.assert_array_equal(x, [p[0] for p in pairs])
        np.testing.assert_array_equal(y, [p[1] for p in pairs])
        assert normals.used == reference.used

    def test_hundred_rejections_raise(self, split):
        base = np.random.default_rng(5).standard_normal(N)
        normals = ScriptedNormals(np.tile(base, 300))     # every pair has x == y
        with pytest.raises(NumericalError, match="100 tries"):
            disc.draw_pairs(split, normals, 3, (disc.OUTSIDE,))
        # the first pair drawn 100 times: once in the one call, then 99 redraws
        assert normals.sizes == [3 * 2 * N] + [2 * N] * 99

    @pytest.mark.parametrize("kinds", [(), (5,), (0.5,), (-1,), (1.0,), (0, 3)],
                             ids=["empty", "five", "half", "minus_one", "float_one", "three"])
    def test_unknown_kinds_raise_before_any_draw(self, split, kinds):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="kinds must be a nonempty cycle"):
            disc.draw_pairs(split, rng, 4, kinds)
        assert rng.bit_generator.state == state


VERIFIERS = {
    "theorem1": (disc.verify_theorem1, disc.verifier_gnn),
    "theorem2": (disc.verify_theorem2_forward, disc.verifier_gnn),
    "corollary1": (disc.verify_corollary1,
                   functools.partial(disc.verifier_gnn, high_gain=0.0)),
    "corollary2": (disc.verify_corollary2, disc.verifier_gnn),
}


class TestVerifierBoundary:
    @pytest.mark.parametrize("suite", VERIFIERS)
    def test_negative_trials(self, split, suite):
        verify, build = VERIFIERS[suite]
        gnn = build(split, Nonlinearity.tanh(), rng=np.random.default_rng(44))
        with pytest.raises(ConfigurationError, match="trials must be nonnegative, got -1"):
            verify(split, gnn, -1, np.random.default_rng(45))


def _as_bytes(value):
    """A report field with every array replaced by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_as_bytes(v) for v in value)
    return value


BLOCK_VERIFIERS = {**VERIFIERS, "corollary2": (
    lambda *a, **kw: disc.verify_corollary2(*a, probe_draws=3, **kw), disc.verifier_gnn)}


class TestBlocks:
    """A verifier walks its trials in blocks of BLOCK_TRIALS pairs; the
    report, the trial log and the generator's state are those of one block."""

    @staticmethod
    def _run(split, suite, trials, tmp_path, name):
        verify, build = BLOCK_VERIFIERS[suite]
        gnn = build(split, Nonlinearity.tanh(), rng=np.random.default_rng(48))
        rng = np.random.default_rng(49)
        report = verify(split, gnn, trials, rng)
        path = tmp_path / f"{name}.csv"
        disc.write_trial_csv([report.columns], str(path))
        fields = {f.name: _as_bytes(getattr(report, f.name))
                  for f in dataclasses.fields(report)}
        return fields, path.read_bytes(), rng.standard_normal(3).tobytes()

    @pytest.mark.parametrize("suite", BLOCK_VERIFIERS)
    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 15, 22])
    def test_blocks_of_seven_equal_one_block(self, split, suite, trials, tmp_path,
                                             monkeypatch):
        # 7 is not a multiple of the mixed cycle's 3 kinds, so later blocks
        # start inside the cycle
        assert trials <= disc.BLOCK_TRIALS
        whole = self._run(split, suite, trials, tmp_path, "whole")
        monkeypatch.setattr(disc, "BLOCK_TRIALS", 7)
        blocks = self._run(split, suite, trials, tmp_path, "blocks")
        assert blocks[0] == whole[0]
        assert blocks[1] == whole[1]
        assert blocks[2] == whole[2]

    def test_memory_flat_in_trials(self, split):
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(50),
                                high_gain=0.0)

        def peak(trials):
            tracemalloc.start()
            try:
                disc.verify_corollary1(split, gnn, trials, np.random.default_rng(51))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = peak(disc.BLOCK_TRIALS)
        assert peak(4 * disc.BLOCK_TRIALS) <= 1.5 * one_block


class TestTanhSecantOffset:
    def test_root_solves_equation(self):
        for a, b in ((0.3, 0.5), (-1.2, 0.2), (0.0, 0.7), (2.0, 0.1)):
            root = disc._tanh_secant_offsets(np.array([a]), b)[0]
            assert not math.isnan(root)
            assert abs(root) > 1e-9
            assert math.tanh(a) - math.tanh(a - root) - b * root == pytest.approx(
                0.0, abs=1e-10)

    def test_unreachable_secant_has_no_offset(self):
        # at a = 2 the largest secant reachable with a nonzero offset stays
        # well below 0.99, while at a = 0.1 the secant 0.99 is reachable
        assert disc._tanh_secant_offsets(np.array([2.0, 0.1]), 0.99) is None
        roots = disc._tanh_secant_offsets(np.array([0.1]), 0.99)
        assert not math.isnan(roots[0])

    def test_root_near_zero_offset(self):
        # b just below the derivative 1 - tanh(a)^2 puts a genuine root
        # close to e = 0, inside the grid cell around zero
        a = 0.4
        b = (1.0 - math.tanh(a) ** 2) * (1.0 - 1e-6)
        root = disc._tanh_secant_offsets(np.array([a]), b)[0]
        assert 0.0 < abs(root) < 1e-3
        assert math.tanh(a) - math.tanh(a - root) - b * root == pytest.approx(
            0.0, abs=1e-14)


def scan_inputs(a, b):
    """A reference search's tanh(a) and floor columns and its grid: 8,001
    points over the extent 2/b + 1 that bounds every root."""
    a = np.asarray(a, dtype=np.float64)[:, None]
    extent = 2.0 / b + 1.0
    return (np.tanh(a), -1.0 / (b * np.cosh(a) ** 2), np.linspace(-extent, extent, 8001))


def one_pass_crossings(tanh_a, floor, grid):
    """Each row's first crossing cell and whether it has one, from the
    whole (rows, grid) array at once."""
    value = tanh_a * grid[None, :]
    value -= np.divide(grid, np.tanh(grid), out=np.ones(grid.shape), where=grid != 0.0)
    above = value > floor
    flips = above[:, :-1] != above[:, 1:]
    cell = np.argmax(flips, axis=1)
    return cell, flips[np.arange(len(cell)), cell]


def psi_minimum(a):
    """min over e of psi(e) = e coth(e) - tanh(a) e, by bisection on the
    sign of psi', which rises from -1 - tanh(a) to 1 - tanh(a)."""
    u = math.tanh(a)
    lo, hi = -50.0, 50.0
    for _ in range(200):
        e = 0.5 * (lo + hi)
        t = math.tanh(e)
        slope = (1.0 / t - e * (1.0 - t * t) / (t * t) if e != 0.0 else 0.0) - u
        lo, hi = (e, hi) if slope < 0.0 else (lo, e)
    return e / math.tanh(e) - u * e


def assert_solves(a, b, roots):
    """Each root solves tanh(a) - tanh(a - e) = b * e to 1e-12 relative."""
    defect = np.tanh(a) - np.tanh(a - roots) - b * roots
    assert np.all(roots != 0.0)
    assert np.all(np.abs(defect) <= 1e-12 * np.abs(b * roots))


_SCAN_RNG = np.random.default_rng(48)


class TestProbeSearch:
    @pytest.mark.parametrize("block_bytes", [None, 8 * 7])
    @pytest.mark.parametrize("a, b", [
        (_SCAN_RNG.normal(scale=1.5, size=40), float(_SCAN_RNG.uniform())),
        (_SCAN_RNG.normal(scale=1.5, size=40), float(_SCAN_RNG.uniform())),
        (_SCAN_RNG.normal(scale=1.5, size=30), 1e-3),
        # only |a| below about 3e-5 reaches a secant this close to tanh'(0)
        (_SCAN_RNG.normal(scale=[[1e-5], [1.5]], size=(2, 15)).ravel(), 1.0 - 1e-9),
        (np.array([2.0, 0.1, -2.5, 0.05, 3.0]), 0.99),   # unreachable at |a| >= 2
    ], ids=["random", "random2", "b_near_0", "b_near_1", "unreachable"])
    def test_blocked_scan_matches_one_pass(self, block_bytes, a, b):
        # the roots a grid search finds: each the first sign change of the
        # secant minus b on a fine grid, or none for the draw. With
        # block_bytes set, the draw is solved in blocks of that many bytes
        # of float64 entries, 7 entries for 8 * 7, whose roots must equal
        # the one-vector solve's bit for bit: every entry steps and stops
        # on its own
        grid = scan_inputs(a, b)[2]
        cell, found = one_pass_crossings(*scan_inputs(a, b))
        if block_bytes is None:
            roots = disc._tanh_secant_offsets(a, b)
        else:
            width = block_bytes // 8
            blocks = [disc._tanh_secant_offsets(a[i:i + width], b)
                      for i in range(0, len(a), width)]
            roots = None if any(r is None for r in blocks) else np.concatenate(blocks)
            whole = disc._tanh_secant_offsets(a, b)
            assert (roots is None) == (whole is None)
            if roots is not None:
                assert roots.tobytes() == whole.tobytes()
        assert found.any()
        assert (roots is None) == (not found.all())
        if roots is not None:
            assert np.all((grid[cell] <= roots) & (roots <= grid[cell + 1]))
            assert_solves(a, b, roots)

    @pytest.mark.parametrize("a", [-1.3, 0.4, 2.2])
    def test_near_double_root(self, a):
        # b sets c = sech(a)^2 / b just above psi's minimum, where the two
        # roots nearly meet and Newton's method slows to halving steps
        low = psi_minimum(a)
        b = (1.0 - math.tanh(a) ** 2) / (low * (1.0 + 1e-12))
        roots = disc._tanh_secant_offsets(np.array([a]), b)
        assert roots is not None
        assert_solves(a, b, roots)
        # just below the minimum there is no root
        b = (1.0 - math.tanh(a) ** 2) / (low * (1.0 - 1e-12))
        assert disc._tanh_secant_offsets(np.array([a]), b) is None

    def test_rounding_floor_stops_the_solve(self):
        # psi' is about -4.5e-4 at this root, and rounding holds psi - c a
        # few ulps above 0: stopped on its step size alone, e creeps up 10
        # ulps a step and the solve takes 205 steps
        a, b = -4.198128026947755, 0.14578741994172428
        roots = disc._tanh_secant_offsets(np.array([a]), b)
        assert roots is not None
        assert_solves(a, b, roots)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(disc, "NEWTON_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge in 1 Newton steps"):
            disc._tanh_secant_offsets(np.array([0.3, -1.2]), 0.5)

    def test_probe_memory_bounded(self, split_of):
        # a probe draw keeps a few (n,) vectors; its (n, n - k) normal
        # equations set the peak, about 0.08 MB at n = 100
        split = split_of(generate_geometric_graph(100, 5, seed=44), 4)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=np.random.default_rng(45))
        rng = np.random.default_rng(46)
        tracemalloc.start()
        try:
            residuals = [disc.overdetermined_probe(split, gnn, 1, rng) for _ in range(8)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(math.isfinite(r) for r in residuals)   # at least one draw was solved
        assert peak <= 0.25e6


class TestTrialCsv:
    def test_layout(self, split, tmp_path):
        rng = np.random.default_rng(35)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem1(split, gnn, 5, rng)
        path = tmp_path / "trials.csv"
        disc.write_trial_csv([report.columns], str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("trial,in_d_h,in_d_phi,residual_low_filter,"
                            "residual_low_gnn,max_secant_deviation")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in "01" and first[2] in "01"

    def test_trials_numbered_across_graphs(self, split, tmp_path):
        rng = np.random.default_rng(52)
        gnn = disc.verifier_gnn(split, Nonlinearity.tanh(), rng=rng)
        graphs = [disc.verify_theorem1(split, gnn, trials, rng).columns
                  for trials in (3, 0, 4)]
        path = tmp_path / "trials.csv"
        disc.write_trial_csv(graphs, str(path))
        lines = path.read_text().split("\n")
        assert lines[-1] == "" and len(lines) == 1 + 7 + 1
        assert [line.split(",")[0] for line in lines[1:-1]] == [str(t) for t in range(7)]
        rows = [row for columns in graphs for row in _rows(columns)]
        assert [line.split(",", 1)[1] for line in lines[1:-1]] == [
            f"{int(a)},{int(b)},{c:.17g},{d:.17g},{e:.17g}" for a, b, c, d, e in rows]
