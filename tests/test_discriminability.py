"""Nondiscriminable-set membership, secants, and the statement verifiers."""

import math

import numpy as np
import pytest

import graphdisc.discriminability as disc
from graphdisc.errors import ConfigurationError, NumericalError
from graphdisc.filters import freq_response, zero_high_response
from graphdisc.gnn import Nonlinearity, SingleLayerGnn, bank_forward
from graphdisc.graphs import generate_geometric_graph, laplacian, normalize_support
from graphdisc.spectral import eig_sym, split_subspace

N, K = 20, 4


@pytest.fixture(scope="module")
def setup():
    g = generate_geometric_graph(N, 5, seed=41)
    spec = eig_sym(normalize_support(laplacian(g)))
    return spec, split_subspace(spec, K)


def judge_one(spec, split, gnn, x, y, tol=1e-8):
    """judge_pairs on the single pair (x, y), a stack of one."""
    return disc.judge_pairs(spec, split, gnn, [x], [y], tol)


def nul_vk(spec, split, d, tol=1e-8):
    """(flag, ||V_low^T d||) for the pair (d, 0) under a one-filter all-ones
    bank, whose filtered difference is d itself up to rounding."""
    ones = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.identity())
    judged = judge_one(spec, split, ones, d, np.zeros(N), tol)
    return bool(judged.in_d_h[0]), float(judged.residual_low_filter[0])


class TestInNulVk:
    def test_high_eigenvector_inside(self, setup):
        spec, split = setup
        flag, residual = nul_vk(spec, split, spec.eigenvectors[:, -1])
        assert flag and residual <= 1e-10

    def test_low_eigenvector_outside(self, setup):
        spec, split = setup
        flag, _ = nul_vk(spec, split, spec.eigenvectors[:, 0])
        assert not flag

    def test_mixed_vector_residual(self, setup):
        spec, split = setup
        d = spec.eigenvectors[:, 0] + spec.eigenvectors[:, -1]
        flag, residual = nul_vk(spec, split, d)
        assert not flag
        assert residual == pytest.approx(1.0, abs=1e-10)

    def test_bits_of_the_norm_form(self, setup):
        # the stacked test gives one vector the bits of np.linalg.norm
        _, split = setup
        rng = np.random.default_rng(14)
        for exponent in rng.uniform(-5, 5, size=50):
            d = rng.standard_normal(N) * 10.0 ** exponent
            residual = float(np.linalg.norm(split.v_low.T @ d))
            flag = residual <= 1e-8 * max(float(np.linalg.norm(d)), disc.SCALE_FLOOR)
            flags, residuals, _ = disc._nul_vk_rows(split, d[None], 1e-8)
            assert (bool(flags[0]), float(residuals[0])) == (flag, residual)


class TestPairInDH:
    @pytest.fixture()
    def gnn(self, setup):
        spec, _ = setup
        rng = np.random.default_rng(0)
        bank = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng).bank
        return SingleLayerGnn(bank=bank, sigma=Nonlinearity.identity())

    def test_equal_signals(self, setup, gnn):
        spec, split = setup
        x = np.random.default_rng(1).standard_normal(N)
        judged = judge_one(spec, split, gnn, x, x)
        assert judged.in_d_h[0] and judged.residual_low_filter[0] <= 1e-12

    def test_high_mode_perturbation_inside(self, setup, gnn):
        spec, split = setup
        x = np.random.default_rng(2).standard_normal(N)
        y = x + spec.eigenvectors[:, K]          # first unprotected mode
        assert judge_one(spec, split, gnn, x, y).in_d_h[0]

    def test_low_mode_perturbation_outside(self, setup, gnn):
        spec, split = setup
        x = np.random.default_rng(3).standard_normal(N)
        y = x + spec.eigenvectors[:, 0]
        assert not judge_one(spec, split, gnn, x, y).in_d_h[0]

    def test_direct_and_filtered_agree_on_random_pairs(self, setup, gnn):
        spec, split = setup
        rng = np.random.default_rng(4)
        for _ in range(25):
            x, y = rng.standard_normal((2, N))
            flag = judge_one(spec, split, gnn, x, y).in_d_h[0]
            direct, _ = nul_vk(spec, split, x - y)
            assert flag == direct

    def test_vanishing_low_response_raises_inconsistency(self, setup):
        # a bank that is blind to the lowest mode breaks the linearity
        # argument; the implementation must flag it instead of answering
        spec, split = setup
        response = np.ones(N)
        response[0] = 0.0
        gnn = SingleLayerGnn(bank=np.array([response]), sigma=Nonlinearity.identity())
        x = np.zeros(N)
        y = spec.eigenvectors[:, 0]
        with pytest.raises(NumericalError):
            judge_one(spec, split, gnn, x, y)


class TestPairInDPhi:
    def test_equal_signals(self, setup):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(),
                                rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal(N)
        verdict = disc.pair_in_d_phi(split, gnn, spec, x, x, 1e-8)
        assert verdict.in_d_phi and verdict.in_d_h
        assert verdict.residual_low_gnn <= 1e-12
        assert verdict.tolerance_used == 1e-8

    def test_identity_sigma_matches_bank_verdict(self, setup):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.identity(),
                                rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        for trial in range(20):
            if trial % 2 == 0:
                x, y = disc.sample_pair_in_d_h(split, rng)
            else:
                x, y = rng.standard_normal((2, N))
            verdict = disc.pair_in_d_phi(split, gnn, spec, x, y, 1e-8)
            assert verdict.in_d_phi == verdict.in_d_h

    def test_tanh_discriminates_high_perturbations(self, setup):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(),
                                rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        discriminated = 0
        for _ in range(50):
            x, y = disc.sample_pair_in_d_h(split, rng)
            verdict = disc.pair_in_d_phi(split, gnn, spec, x, y, 1e-8)
            assert verdict.in_d_h
            discriminated += not verdict.in_d_phi
        assert discriminated >= 48


class TestSamplePair:
    def test_difference_in_null_space(self, setup):
        spec, split = setup
        rng = np.random.default_rng(11)
        x, y = disc.sample_pair_in_d_h(split, rng)
        flag, residual = nul_vk(spec, split, x - y)
        assert flag and residual <= 1e-10

    def test_zero_scale_gives_equal_pair(self, setup):
        _, split = setup
        x, y = disc.sample_pair_in_d_h(split, np.random.default_rng(12), scale=0.0)
        np.testing.assert_array_equal(x, y)

    def test_delta_recovery(self, setup):
        _, split = setup

        class Recorder:
            def __init__(self):
                self.rng = np.random.default_rng(13)
                self.draws = []

            def standard_normal(self, size):
                out = self.rng.standard_normal(size)
                self.draws.append(out)
                return out

        rec = Recorder()
        x, y = disc.sample_pair_in_d_h(split, rec, scale=0.7)
        assert [draw.size for draw in rec.draws] == [2 * N - K]   # x, then delta
        np.testing.assert_array_equal(x, rec.draws[0][:N])
        delta_drawn = 0.7 * rec.draws[0][N:]
        recovered = split.v_high.T @ (y - x)
        np.testing.assert_allclose(recovered, delta_drawn, atol=1e-12)


class TestSecantReport:
    def test_identity_sigma_unit_secants(self, setup):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.identity(),
                                rng=np.random.default_rng(14))
        rng = np.random.default_rng(15)
        x, y = rng.standard_normal((2, N))
        report = disc.secant_report(gnn, spec, x, y, K)
        np.testing.assert_allclose(report.secants, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.max_deviation, 0.0, atol=1e-12)

    def test_tanh_symmetric_secant_value(self, setup):
        # identity filter maps x to itself, so the secant between +1 and -1
        # is (tanh(1) - tanh(-1)) / 2 = tanh(1)
        spec, _ = setup
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        x = np.ones(N)
        y = -np.ones(N)
        report = disc.secant_report(gnn, spec, x, y, K)
        np.testing.assert_allclose(report.secants, math.tanh(1.0), atol=1e-9)
        assert math.tanh(1.0) == pytest.approx(0.7615941559, abs=1e-9)

    def test_equal_points_use_derivative(self, setup):
        spec, _ = setup
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        x = np.zeros(N)
        report = disc.secant_report(gnn, spec, x, x, K)
        np.testing.assert_allclose(report.secants, 1.0, atol=1e-12)

    def test_high_response_flags(self, setup):
        spec, _ = setup
        bank = (zero_high_response(spec, K, np.ones(K)), np.ones(N))
        gnn = SingleLayerGnn(bank=bank, sigma=Nonlinearity.tanh())
        rng = np.random.default_rng(16)
        report = disc.secant_report(gnn, spec, rng.standard_normal(N),
                                    rng.standard_normal(N), K)
        np.testing.assert_array_equal(report.high_response_nonzero, [False, True])

    def test_secant_bounds_strictly_monotone(self, setup):
        spec, _ = setup
        rng = np.random.default_rng(17)
        for sigma in (Nonlinearity.tanh(), Nonlinearity.leaky_rectifier(0.3)):
            gnn = disc.verifier_gnn(spec, K, sigma, rng=rng)
            for _ in range(10):
                x, y = rng.standard_normal((2, N))
                report = disc.secant_report(gnn, spec, x, y, K)
                assert np.all(report.secants > 0.0)
                assert np.all(report.secants <= 1.0 + 1e-12)


class TestVerifyTheorem1:
    def test_no_counterexamples_tanh(self, setup):
        spec, split = setup
        rng = np.random.default_rng(18)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem1(spec, split, gnn, 100, rng)
        assert report.counterexamples == 0
        assert len(report.rows) == 100
        assert all(not row.in_d_h for row in report.rows)

    def test_no_counterexamples_identity(self, setup):
        spec, split = setup
        rng = np.random.default_rng(19)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.identity(), rng=rng)
        report = disc.verify_theorem1(spec, split, gnn, 50, rng)
        assert report.counterexamples == 0

    def test_low_mode_difference_discriminated_by_both(self, setup):
        spec, split = setup
        rng = np.random.default_rng(20)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        x = rng.standard_normal(N)
        y = x + 0.5 * spec.eigenvectors[:, 0]
        verdict = disc.pair_in_d_phi(split, gnn, spec, x, y, 1e-8)
        assert not verdict.in_d_h and not verdict.in_d_phi

    def test_requires_zero_high_first_filter(self, setup):
        spec, split = setup
        gnn = SingleLayerGnn(bank=np.ones((1, N)), sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_theorem1(spec, split, gnn, 5, np.random.default_rng(21))

    @pytest.mark.parametrize("high, accepted", [(1e-9, False), (1e-12, True)])
    def test_zero_high_tolerance(self, setup, high, accepted):
        # disc.ZERO_HIGH_TOL = 1e-10 lies between the two gains
        spec, split = setup
        first = zero_high_response(spec, K, np.ones(K))
        first[K:] = high
        gnn = SingleLayerGnn(bank=(first, np.ones(N)), sigma=Nonlinearity.tanh())
        rng = np.random.default_rng(36)
        if accepted:
            assert disc.verify_theorem1(spec, split, gnn, 5, rng).counterexamples == 0
        else:
            with pytest.raises(ConfigurationError, match="must vanish above the cutoff"):
                disc.verify_theorem1(spec, split, gnn, 5, rng)

    def test_fir_bank_accepted(self):
        # an interpolating FIR filter that vanishes on the unprotected
        # eigenvalues is numerically, not exactly, zero there; a small
        # well-separated spectrum keeps the interpolation conditioned
        from graphdisc.graphs import SupportMatrix

        lam = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        s = SupportMatrix(np.diag(lam))
        spec = eig_sym(s)
        split = split_subspace(spec, 2)
        targets = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        coeffs = np.linalg.solve(np.vander(lam, 5, increasing=True), targets)
        gnn = SingleLayerGnn(bank=(freq_response(coeffs, spec.eigenvalues), np.ones(5)),
                             sigma=Nonlinearity.tanh())
        report = disc.verify_theorem1(spec, split, gnn, 10, np.random.default_rng(22))
        assert report.counterexamples == 0


class TestVerifyTheorem2:
    def test_identity_sigma_full_agreement(self, setup):
        spec, split = setup
        rng = np.random.default_rng(23)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.identity(), rng=rng)
        report = disc.verify_theorem2_forward(spec, split, gnn, 100, rng)
        assert report.agreement_rate == 1.0
        assert report.discriminated == 0    # linear case keeps D_H pairs

    def test_tanh_discriminates_most_pairs(self, setup):
        spec, split = setup
        rng = np.random.default_rng(24)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem2_forward(spec, split, gnn, 100, rng)
        assert report.agreement_rate == 1.0
        assert report.discriminated >= 99

    def test_constructed_constant_secant_pair(self, setup):
        spec, split = setup
        rng = np.random.default_rng(25)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.leaky_rectifier(0.1), rng=rng)
        x, y = disc.constant_secant_pair(split, gnn, spec, rng)
        scale = np.linalg.norm(x - y)
        verdict = disc.pair_in_d_phi(split, gnn, spec, x, y, 1e-8)
        assert verdict.in_d_h and verdict.in_d_phi
        assert verdict.residual_low_gnn <= 1e-9 * scale
        report = disc.secant_report(gnn, spec, x, y, K)
        np.testing.assert_allclose(report.secants, 1.0, atol=1e-12)

    def test_needs_two_filters(self, setup):
        spec, split = setup
        gnn = SingleLayerGnn(bank=np.array([zero_high_response(spec, K, np.ones(K))]),
                             sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_theorem2_forward(spec, split, gnn, 5,
                                         np.random.default_rng(26))


class TestVerifyCorollary1:
    def test_verdicts_always_agree(self, setup):
        spec, split = setup
        rng = np.random.default_rng(27)
        gnn = disc.all_zero_high_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_corollary1(spec, split, gnn, 90, rng)
        assert report.verdict_mismatches == 0
        flags = {(row.in_d_h, row.in_d_phi) for row in report.rows}
        assert (True, True) in flags and (False, False) in flags

    def test_bank_annihilates_difference_before_sigma(self, setup):
        # for a D_H pair the features of x and y coincide to 1e-12
        spec, split = setup
        rng = np.random.default_rng(28)
        gnn = disc.all_zero_high_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        x, y = disc.sample_pair_in_d_h(split, rng)
        diff = (gnn.sigma.eval(bank_forward(gnn.bank, spec, x))
                - gnn.sigma.eval(bank_forward(gnn.bank, spec, y)))
        assert np.max(np.abs(diff)) <= 1e-12

    def test_rejects_bank_with_high_response(self, setup):
        spec, split = setup
        bank = (zero_high_response(spec, K, np.ones(K)), np.ones(N))
        gnn = SingleLayerGnn(bank=bank, sigma=Nonlinearity.tanh())
        with pytest.raises(ConfigurationError):
            disc.verify_corollary1(spec, split, gnn, 5, np.random.default_rng(29))


class TestVerifyCorollary2:
    def test_report(self, setup):
        spec, split = setup
        rng = np.random.default_rng(30)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_corollary2(spec, split, gnn, 60, rng, probe_draws=40)
        assert report.subset_violations == 0
        assert report.strictness_witnesses >= 1
        assert report.probe_above_threshold >= 0.95 * report.probe_draws

    def test_requires_tanh(self, setup):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.identity(),
                                rng=np.random.default_rng(31))
        with pytest.raises(ConfigurationError):
            disc.verify_corollary2(spec, split, gnn, 5, np.random.default_rng(32))

    def test_requires_multiple_high_modes(self):
        g = generate_geometric_graph(6, 2, seed=43)
        spec = eig_sym(normalize_support(laplacian(g)))
        split = split_subspace(spec, 5)     # single unprotected mode
        gnn = disc.verifier_gnn(spec, 5, Nonlinearity.tanh(),
                                rng=np.random.default_rng(33))
        with pytest.raises(ConfigurationError):
            disc.verify_corollary2(spec, split, gnn, 5, np.random.default_rng(34))


def _per_pair_rows(split, gnn, spec, pairs):
    """The trial rows of the per-pair functions, one pair at a time."""
    rows = []
    for x, y in pairs:
        v = disc.pair_in_d_phi(split, gnn, spec, x, y, disc.DEFAULT_TOL)
        report = disc.secant_report(gnn, spec, x, y, split.k)
        rows.append(disc.TrialRow(v.in_d_h, v.in_d_phi, v.residual_low_filter,
                                  v.residual_low_gnn, float(np.max(report.max_deviation))))
    return rows


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
                        > disc.DEFAULT_TOL * max(np.linalg.norm(d), disc.SCALE_FLOOR)):
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
    """A verifier judges all its pairs in one stacked pass; every row must
    carry the bits the per-pair functions give its pair alone."""

    @pytest.mark.parametrize("suite, sigma", STACKED_CASES)
    def test_rows_equal_per_pair_rows(self, setup, suite, sigma):
        spec, split = setup
        build = disc.all_zero_high_gnn if suite == "corollary1" else disc.verifier_gnn
        gnn = build(spec, K, SIGMAS[sigma], rng=np.random.default_rng(40))
        verify = {"theorem1": disc.verify_theorem1,
                  "theorem2": disc.verify_theorem2_forward,
                  "corollary1": disc.verify_corollary1,
                  "corollary2": lambda *a: disc.verify_corollary2(*a, probe_draws=5)}[suite]
        report = verify(spec, split, gnn, 30, np.random.default_rng(41))
        pairs = _drawn_pairs(split, suite, np.random.default_rng(41), 30)
        assert report.rows == _per_pair_rows(split, gnn, spec, pairs)

        if suite == "theorem2":
            # the per-trial margin loop the stacked counts replace
            high = disc._high_response_flags(gnn.bank, K)
            agreements, worst = 0, math.inf
            for (x, y), row in zip(pairs, report.rows):
                considered = disc.secant_report(gnn, spec, x, y, K).max_deviation[high]
                agreements += row.in_d_phi == bool(np.all(considered <= disc.DEFAULT_SECANT_TOL))
                margin_phi = abs(row.residual_low_gnn / max(float(np.linalg.norm(x - y)),
                                                            disc.SCALE_FLOOR) - disc.DEFAULT_TOL)
                worst = min(worst, margin_phi,
                            float(np.min(np.abs(considered - disc.DEFAULT_SECANT_TOL))))
            assert (report.agreements, report.worst_margin) == (agreements, worst)
            assert report.discriminated == sum(not row.in_d_phi for row in report.rows)

    def test_zero_trials(self, setup):
        spec, split = setup
        tanh = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=np.random.default_rng(42))
        flat = disc.all_zero_high_gnn(spec, K, Nonlinearity.tanh(),
                                      rng=np.random.default_rng(42))
        rng = np.random.default_rng(43)
        assert disc.verify_theorem1(spec, split, tanh, 0, rng).rows == []
        report = disc.verify_theorem2_forward(spec, split, tanh, 0, rng)
        assert report.rows == [] and report.agreements == 0
        assert report.agreement_rate == 1.0 and report.worst_margin == math.inf
        assert disc.verify_corollary1(spec, split, flat, 0, rng).rows == []
        assert disc.verify_corollary2(spec, split, tanh, 0, rng, probe_draws=3).rows == []


class TestJudgePairs:
    """A pair judged alone, as a stack of one, carries the bits it carries
    inside a stack of T: the bank_forward contract."""

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_alone_equals_in_stack(self, setup, sigma):
        spec, split = setup
        gnn = disc.verifier_gnn(spec, K, SIGMAS[sigma], rng=np.random.default_rng(46))
        x, y = disc.draw_pairs(split, np.random.default_rng(47), 12, disc.MIXED,
                               disc.DEFAULT_TOL)
        stacked = disc.judge_pairs(spec, split, gnn, x, y, disc.DEFAULT_TOL)
        # inside, outside, identical, ...: only the outside pairs leave D_H
        assert stacked.in_d_h.tolist() == [t % 3 != 1 for t in range(12)]
        for t in range(12):
            alone = disc.judge_pairs(spec, split, gnn, x[t:t + 1], y[t:t + 1],
                                     disc.DEFAULT_TOL)
            for name, column in stacked._asdict().items():
                assert getattr(alone, name)[0].tobytes() == column[t].tobytes(), (t, name)


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
    def test_equal_to_one_by_one_draws(self, setup, suite, seed):
        _, split = setup
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        x, y = disc.draw_pairs(split, rng, 31, CYCLES[suite], disc.DEFAULT_TOL)
        pairs = _drawn_pairs(split, suite, reference, 31)
        np.testing.assert_array_equal(x, [p[0] for p in pairs])
        np.testing.assert_array_equal(y, [p[1] for p in pairs])
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_one_call(self, setup):
        _, split = setup
        normals = ScriptedNormals(np.random.default_rng(3).standard_normal(1000))
        disc.draw_pairs(split, normals, 7, disc.MIXED, disc.DEFAULT_TOL)
        # kinds inside, outside, identical, inside, outside, identical, inside
        assert normals.sizes == [3 * (2 * N - K) + 2 * 2 * N + 2 * N]

    @pytest.mark.parametrize("suite", ["theorem1", "corollary1"])
    @pytest.mark.parametrize("rejections", [1, 2, 99])
    def test_rejected_pair_redrawn_from_the_next_normals(self, setup, suite, rejections):
        _, split = setup
        base = np.random.default_rng(4).standard_normal(2000)
        first = 0 if suite == "theorem1" else 2 * N - K   # where the first outside pair starts
        equal = np.tile(base[:N], 2 * rejections)         # x == y, rejected each time
        stream = np.concatenate((base[:first], equal, base[first:]))
        normals = ScriptedNormals(stream)
        x, y = disc.draw_pairs(split, normals, 8, CYCLES[suite], disc.DEFAULT_TOL)

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

    def test_hundred_rejections_raise(self, setup):
        _, split = setup
        base = np.random.default_rng(5).standard_normal(N)
        normals = ScriptedNormals(np.tile(base, 300))     # every pair has x == y
        with pytest.raises(NumericalError, match="100 tries"):
            disc.draw_pairs(split, normals, 3, (disc.OUTSIDE,), disc.DEFAULT_TOL)
        # the first pair drawn 100 times: once in the one call, then 99 redraws
        assert normals.sizes == [3 * 2 * N] + [2 * N] * 99


VERIFIERS = {
    "theorem1": (disc.verify_theorem1, disc.verifier_gnn),
    "theorem2": (disc.verify_theorem2_forward, disc.verifier_gnn),
    "corollary1": (disc.verify_corollary1, disc.all_zero_high_gnn),
    "corollary2": (disc.verify_corollary2, disc.verifier_gnn),
}


class TestVerifierBoundary:
    @pytest.mark.parametrize("suite", VERIFIERS)
    def test_negative_trials(self, setup, suite):
        spec, split = setup
        verify, build = VERIFIERS[suite]
        gnn = build(spec, K, Nonlinearity.tanh(), rng=np.random.default_rng(44))
        with pytest.raises(ConfigurationError, match="trials must be nonnegative, got -1"):
            verify(spec, split, gnn, -1, np.random.default_rng(45))

    @pytest.mark.parametrize("suite", VERIFIERS)
    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_nonpositive_tol_before_any_draw(self, setup, suite, tol):
        spec, split = setup
        verify, build = VERIFIERS[suite]
        gnn = build(spec, K, Nonlinearity.tanh(), rng=np.random.default_rng(44))
        rng = np.random.default_rng(45)
        untouched = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="tol must be positive"):
            verify(spec, split, gnn, 10, rng, tol=tol)
        assert rng.bit_generator.state == untouched


class TestTanhSecantOffset:
    def test_root_solves_equation(self):
        for a, b in ((0.3, 0.5), (-1.2, 0.2), (0.0, 0.7), (2.0, 0.1)):
            root = disc._tanh_secant_offsets(np.array([a]), b)[0]
            assert not math.isnan(root)
            assert abs(root) > 1e-9
            assert math.tanh(a) - math.tanh(a - root) - b * root == pytest.approx(
                0.0, abs=1e-10)

    def test_unreachable_secant_returns_nan(self):
        # at a = 2 the largest secant reachable with a nonzero offset stays
        # well below 0.99, while at a = 0.1 the secant 0.99 is reachable
        roots = disc._tanh_secant_offsets(np.array([2.0, 0.1]), 0.99)
        assert math.isnan(roots[0])
        assert not math.isnan(roots[1])

    def test_root_near_zero_offset(self):
        # b just below the derivative 1 - tanh(a)^2 puts a genuine root
        # close to e = 0, inside the grid cell around zero
        a = 0.4
        b = (1.0 - math.tanh(a) ** 2) * (1.0 - 1e-6)
        root = disc._tanh_secant_offsets(np.array([a]), b)[0]
        assert 0.0 < abs(root) < 1e-3
        assert math.tanh(a) - math.tanh(a - root) - b * root == pytest.approx(
            0.0, abs=1e-14)


class TestTrialCsv:
    def test_layout(self, setup, tmp_path):
        spec, split = setup
        rng = np.random.default_rng(35)
        gnn = disc.verifier_gnn(spec, K, Nonlinearity.tanh(), rng=rng)
        report = disc.verify_theorem1(spec, split, gnn, 5, rng)
        path = tmp_path / "trials.csv"
        disc.write_trial_csv(report.rows, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("trial,in_d_h,in_d_phi,residual_low_filter,"
                            "residual_low_gnn,max_secant_deviation")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in "01" and first[2] in "01"
