"""Nondiscriminable-set membership, secant analysis, and randomized verifiers.

Two signals are nondiscriminable relative to a split when their difference
carries no energy on the k protected (low-magnitude) modes. Three nested
views of that idea are implemented:

  in_nul_vk:     the difference x - y itself has no low-mode energy
  pair_in_d_h:   no filtered difference H^f x - H^f y has low-mode energy
  pair_in_d_phi: no activated difference sigma(H^f x) - sigma(H^f y) has
                 low-mode energy

All membership tests are relative: a residual counts as zero when it is at
most tol * max(||x - y||, 1e-30). By linearity the first two views must
agree whenever every filter is nonzero on the protected modes; pair_in_d_h
computes both and raises NumericalError if they ever disagree, since that
signals a numerical bug rather than a modelling fact.

The verifiers draw randomized trials and check, statement by statement:

  verify_theorem1:         discriminable pairs stay discriminable after the
                           nonlinearity when one filter is exactly zero on
                           the unprotected modes
  verify_theorem2_forward: for pairs the bank cannot discriminate, GNN
                           nondiscriminability coincides with the secants
                           of the nonlinearity being constant across nodes
  verify_corollary1:       with an all-zero-high bank the two verdicts are
                           identical on every pair
  verify_corollary2:       with tanh and more than one unprotected mode the
                           GNN verdict set is strictly smaller, and the
                           per-node secant equations admit no consistent
                           solution (overdetermined-system probe)

A GNN's bank is its (F, n) gains array on the Spectrum of the split; a
filter counts as zero above the cutoff when every gain there is at most
ZERO_HIGH_TOL in magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .filters import zero_high_response
from .gnn import Nonlinearity, SingleLayerGnn, bank_forward
from .spectral import Spectrum, SubspaceSplit

SCALE_FLOOR = 1e-30
SECANT_EQUAL_POINTS = 1e-12   # |x_i - y_i| below this uses the derivative
ZERO_HIGH_TOL = 1e-10         # a gain above the cutoff counts as zero up to this
DEFAULT_TOL = 1e-8
DEFAULT_SECANT_TOL = 1e-9
SECANT_GRID_POINTS = 8001
REFINE_POINTS = 257           # each refinement narrows a bracket 256-fold
REFINE_ROUNDS = 6             # 2**-48 of a grid cell: below 1e-14 for b > 1e-3


@dataclass(frozen=True)
class PairVerdict:
    """Membership evidence for one (x, y) pair."""

    in_d_h: bool
    in_d_phi: bool
    residual_low_filter: float  # Frobenius over filters of ||V_low^T (H^f x - H^f y)||
    residual_low_gnn: float     # same, after the nonlinearity
    tolerance_used: float


@dataclass(frozen=True)
class SecantReport:
    """Per-filter secants of the nonlinearity between the two filter outputs."""

    secants: np.ndarray               # (F, n)
    max_deviation: np.ndarray         # (F,) max_i |b_i - mean_i b_i|
    high_response_nonzero: np.ndarray  # (F,) bool


@dataclass(frozen=True)
class TrialRow:
    """One verifier trial, in the layout of the exported CSV."""

    trial: int
    in_d_h: bool
    in_d_phi: bool
    residual_low_filter: float
    residual_low_gnn: float
    max_secant_deviation: float


def _pair_scale(x: np.ndarray, y: np.ndarray) -> float:
    return max(float(np.linalg.norm(x - y)), SCALE_FLOOR)


def in_nul_vk(split: SubspaceSplit, d: np.ndarray, tol: float) -> tuple[bool, float]:
    """Whether d carries no low-mode energy; returns (flag, residual)."""
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (split.n,):
        raise ShapeError(f"signal has shape {d.shape}, expected ({split.n},)")
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    residual = float(np.linalg.norm(split.v_low.T @ d))
    flag = residual <= tol * max(float(np.linalg.norm(d)), SCALE_FLOOR)
    return flag, residual


def _low_residuals(split: SubspaceSplit, features_x: np.ndarray,
                   features_y: np.ndarray) -> np.ndarray:
    """Per-filter low-mode residuals ||V_low^T (f_x - f_y)||, shape (F,)."""
    diff = features_x - features_y          # (F, n)
    return np.linalg.norm(diff @ split.v_low, axis=1)


class _PairOutputs(NamedTuple):
    """Filter outputs of a pair and their activations, each (F, n)."""

    fx: np.ndarray
    fy: np.ndarray
    gx: np.ndarray
    gy: np.ndarray


def _pair_outputs(gnn: SingleLayerGnn, spec: Spectrum, x: np.ndarray,
                  y: np.ndarray) -> _PairOutputs:
    fx = bank_forward(gnn.bank, spec, x)
    fy = bank_forward(gnn.bank, spec, y)
    return _PairOutputs(fx, fy, gnn.sigma.eval(fx), gnn.sigma.eval(fy))


def _bank_verdict(split: SubspaceSplit, fx: np.ndarray, fy: np.ndarray,
                  x: np.ndarray, y: np.ndarray, tol: float) -> tuple[bool, float]:
    """The pair_in_d_h verdict on filter outputs already computed."""
    residuals = _low_residuals(split, fx, fy)
    filtered_flag = bool(np.all(residuals <= tol * _pair_scale(x, y)))

    direct_flag, _ = in_nul_vk(split, x - y, tol)
    if direct_flag != filtered_flag:
        raise NumericalError(
            "direct and filtered nondiscriminability verdicts disagree "
            f"(direct={direct_flag}, filtered={filtered_flag}); this indicates "
            "a numerical bug or a bank that vanishes on a protected mode"
        )
    return filtered_flag, float(np.linalg.norm(residuals))


def _pair_verdict(split: SubspaceSplit, out: _PairOutputs, x: np.ndarray,
                  y: np.ndarray, tol: float) -> PairVerdict:
    """The pair_in_d_phi verdict on filter outputs already computed."""
    in_d_h_flag, residual_filter = _bank_verdict(split, out.fx, out.fy, x, y, tol)
    residuals = _low_residuals(split, out.gx, out.gy)
    return PairVerdict(
        in_d_h=in_d_h_flag,
        in_d_phi=bool(np.all(residuals <= tol * _pair_scale(x, y))),
        residual_low_filter=residual_filter,
        residual_low_gnn=float(np.linalg.norm(residuals)),
        tolerance_used=tol,
    )


def _secants(sigma: Nonlinearity, out: _PairOutputs) -> tuple[np.ndarray, np.ndarray]:
    """Per-node secants (F, n) and each filter's max deviation from their mean."""
    diff = out.fx - out.fy
    equal = np.abs(diff) < SECANT_EQUAL_POINTS
    safe = np.where(equal, 1.0, diff)
    secants = np.where(equal, sigma.output_derivative(out.gx), (out.gx - out.gy) / safe)
    max_dev = np.max(np.abs(secants - secants.mean(axis=1, keepdims=True)), axis=1)
    return secants, max_dev


def _high_response_flags(bank: np.ndarray, k: int) -> np.ndarray:
    """Which rows of the (F, n) gains respond above the index-k cutoff."""
    return np.any(np.abs(bank[:, k:]) > ZERO_HIGH_TOL, axis=1)


def pair_in_d_h(split: SubspaceSplit, bank: np.ndarray, spec: Spectrum, x: np.ndarray,
                y: np.ndarray, tol: float) -> tuple[bool, float]:
    """Whether the bank cannot discriminate x from y; returns (flag, residual).

    The direct test on x - y is evaluated alongside the filtered test; the
    two must agree by linearity, and a disagreement raises NumericalError.
    The returned residual aggregates the per-filter residuals
    Frobenius-style.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _bank_verdict(split, bank_forward(bank, spec, x),
                         bank_forward(bank, spec, y), x, y, tol)


def pair_in_d_phi(split: SubspaceSplit, gnn: SingleLayerGnn, spec: Spectrum,
                  x: np.ndarray, y: np.ndarray, tol: float) -> PairVerdict:
    """Full membership verdict for one pair under the GNN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _pair_verdict(split, _pair_outputs(gnn, spec, x, y), x, y, tol)


def sample_pair_in_d_h(split: SubspaceSplit, rng: np.random.Generator,
                       scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """A pair that is nondiscriminable by construction.

    x is standard normal and y adds a high-subspace perturbation with
    coefficients scale * standard normal.
    """
    if split.v_high.shape[1] < 1:
        raise ConfigurationError("the split has no high subspace to perturb in")
    x = rng.standard_normal(split.n)
    delta = scale * rng.standard_normal(split.v_high.shape[1])
    y = x + split.v_high @ delta
    return x, y


def secant_report(gnn: SingleLayerGnn, spec: Spectrum, x: np.ndarray,
                  y: np.ndarray, cutoff_k: int) -> SecantReport:
    """Secants of the nonlinearity between the two filter outputs, per node.

    Where the two outputs coincide (within 1e-12) the derivative replaces
    the secant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    secants, max_dev = _secants(gnn.sigma, _pair_outputs(gnn, spec, x, y))
    return SecantReport(
        secants=secants,
        max_deviation=max_dev,
        high_response_nonzero=_high_response_flags(gnn.bank, cutoff_k),
    )


# ---------------------------------------------------------------------------
# constructions used by the verifiers
# ---------------------------------------------------------------------------

def verifier_gnn(spec: Spectrum, k: int, sigma: Nonlinearity,
                 full_band_filters: int = 1,
                 rng: np.random.Generator | None = None) -> SingleLayerGnn:
    """Spectral-bank GNN with the shape the theorems hypothesize.

    The first filter is exactly zero above the index-k cutoff with unit
    gains below; each additional filter has random positive low gains and a
    constant unit gain above the cutoff.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    rows = [zero_high_response(spec, k, np.ones(k))]
    for _ in range(full_band_filters):
        row = np.ones(spec.n)
        row[:k] = rng.uniform(0.5, 1.5, size=k)
        rows.append(row)
    return SingleLayerGnn(bank=np.stack(rows), sigma=sigma)


def all_zero_high_gnn(spec: Spectrum, k: int, sigma: Nonlinearity,
                      n_filters: int = 2,
                      rng: np.random.Generator | None = None) -> SingleLayerGnn:
    """GNN whose every filter is exactly zero above the index-k cutoff."""
    if rng is None:
        rng = np.random.default_rng(0)
    rows = [zero_high_response(spec, k, np.ones(k))]
    for _ in range(n_filters - 1):
        rows.append(zero_high_response(spec, k, rng.uniform(0.5, 1.5, size=k)))
    return SingleLayerGnn(bank=np.stack(rows), sigma=sigma)


def constant_secant_pair(split: SubspaceSplit, gnn: SingleLayerGnn, spec: Spectrum,
                         rng: np.random.Generator, scale: float = 1.0,
                         margin: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """A bank-nondiscriminable pair whose filter outputs are all positive.

    Both signals are shifted along the lowest eigenvector until every filter
    output entry of both exceeds `margin`, so a piecewise-linear activation
    operates in its unit-slope region and the secants are constant by
    construction. The shift leaves x - y untouched.
    """
    v1 = spec.eigenvectors[:, 0]
    if float(np.min(v1)) <= 1e-8:
        raise ConfigurationError(
            "the lowest eigenvector must be entrywise positive for the "
            "all-positive construction (is the graph connected?)"
        )
    gains_v1 = gnn.bank[:, 0]
    if float(np.min(gains_v1)) <= 1e-12:
        raise ConfigurationError(
            "every filter needs a positive gain on the lowest mode to "
            "shift its output positive"
        )

    x0, y0 = sample_pair_in_d_h(split, rng, scale)
    fx = bank_forward(gnn.bank, spec, x0)
    fy = bank_forward(gnn.bank, spec, y0)
    v1_min = float(np.min(v1))
    shift = 0.0
    for gain, ax, ay in zip(gains_v1, fx, fy):
        lowest = float(min(ax.min(), ay.min()))
        shift = max(shift, (margin - lowest) / (gain * v1_min))
    return x0 + shift * v1, y0 + shift * v1


def _require_zero_high(gains: np.ndarray, k: int, role: str) -> None:
    """Reject an (n,) gains row with a gain above ZERO_HIGH_TOL past index k."""
    peak = float(np.max(np.abs(gains[k:])))
    if peak > ZERO_HIGH_TOL:
        raise ConfigurationError(
            f"{role} must vanish above the cutoff; max response there is {peak:.3e}"
        )


# ---------------------------------------------------------------------------
# randomized statement verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem1Report:
    trials: int
    counterexamples: int
    rows: list[TrialRow] = field(repr=False)


@dataclass(frozen=True)
class Theorem2Report:
    trials: int
    agreements: int
    agreement_rate: float
    discriminated: int     # trials with in_d_phi false
    worst_margin: float    # smallest observed distance to a decision threshold
    rows: list[TrialRow] = field(repr=False)


@dataclass(frozen=True)
class Corollary1Report:
    trials: int
    verdict_mismatches: int
    rows: list[TrialRow] = field(repr=False)


@dataclass(frozen=True)
class Corollary2Report:
    trials: int
    subset_violations: int
    strictness_witnesses: int
    probe_draws: int
    probe_above_threshold: int   # residual > 1e-6
    probe_residuals: np.ndarray
    rows: list[TrialRow] = field(repr=False)


def _sample_pair_not_in_d_h(split: SubspaceSplit, rng: np.random.Generator,
                            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample a pair whose difference has low-mode energy."""
    for _ in range(100):
        x = rng.standard_normal(split.n)
        y = rng.standard_normal(split.n)
        flag, _ = in_nul_vk(split, x - y, tol)
        if not flag:
            return x, y
    raise NumericalError("could not sample a discriminable pair in 100 tries")


def _mixed_pairs(split: SubspaceSplit, rng: np.random.Generator, trials: int,
                 tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """By trial % 3: a pair inside D_H, a pair outside it, an identical pair."""
    pairs = []
    for trial in range(trials):
        mode = trial % 3
        if mode == 0:
            pairs.append(sample_pair_in_d_h(split, rng))
        elif mode == 1:
            pairs.append(_sample_pair_not_in_d_h(split, rng, tol))
        else:
            x = rng.standard_normal(split.n)
            pairs.append((x, x.copy()))
    return pairs


def _run_trials(spec: Spectrum, split: SubspaceSplit, gnn: SingleLayerGnn,
                pairs: list[tuple[np.ndarray, np.ndarray]],
                tol: float) -> tuple[list[TrialRow], list[np.ndarray]]:
    """Filter, activate and judge each pair once.

    Returns one TrialRow per pair and, per pair, each filter's max secant
    deviation, shape (F,).
    """
    rows, deviations = [], []
    for trial, (x, y) in enumerate(pairs):
        out = _pair_outputs(gnn, spec, x, y)
        verdict = _pair_verdict(split, out, x, y, tol)
        max_dev = _secants(gnn.sigma, out)[1]
        rows.append(TrialRow(
            trial=trial,
            in_d_h=verdict.in_d_h,
            in_d_phi=verdict.in_d_phi,
            residual_low_filter=verdict.residual_low_filter,
            residual_low_gnn=verdict.residual_low_gnn,
            max_secant_deviation=float(np.max(max_dev)),
        ))
        deviations.append(max_dev)
    return rows, deviations


def verify_theorem1(spec: Spectrum, split: SubspaceSplit, gnn: SingleLayerGnn,
                    trials: int, rng: np.random.Generator,
                    tol: float = DEFAULT_TOL) -> Theorem1Report:
    """Sample pairs the bank discriminates; count any the GNN does not.

    Requires the first filter of the bank to vanish above the cutoff; every
    Nonlinearity kind is strictly monotone and 1-Lipschitz, as the theorem
    asks. The expected counterexample count is zero.
    """
    _require_zero_high(gnn.bank[0], split.k, "the first filter")
    pairs = [_sample_pair_not_in_d_h(split, rng, tol) for _ in range(trials)]
    rows, _ = _run_trials(spec, split, gnn, pairs, tol)
    return Theorem1Report(trials=trials, counterexamples=sum(r.in_d_phi for r in rows),
                          rows=rows)


def verify_theorem2_forward(spec: Spectrum, split: SubspaceSplit,
                            gnn: SingleLayerGnn, trials: int,
                            rng: np.random.Generator,
                            tol: float = DEFAULT_TOL,
                            tol_secant: float = DEFAULT_SECANT_TOL) -> Theorem2Report:
    """Check the constant-secant biconditional on bank-nondiscriminable pairs.

    For each sampled pair the GNN verdict must coincide with the secants
    being constant across nodes for every filter that responds above the
    cutoff. Reports the agreement rate and the worst margin by which a
    trial cleared its decision thresholds.
    """
    if len(gnn.bank) < 2:
        raise ConfigurationError("the biconditional needs at least two filters")
    _require_zero_high(gnn.bank[0], split.k, "the first filter")
    high = _high_response_flags(gnn.bank, split.k)

    pairs = [sample_pair_in_d_h(split, rng) for _ in range(trials)]
    rows, deviations = _run_trials(spec, split, gnn, pairs, tol)
    agreements = 0
    discriminated = 0
    worst_margin = math.inf
    for row, max_dev, (x, y) in zip(rows, deviations, pairs):
        considered = max_dev[high]
        constant = bool(np.all(considered <= tol_secant))
        agreements += row.in_d_phi == constant
        discriminated += not row.in_d_phi

        margin_phi = abs(row.residual_low_gnn / _pair_scale(x, y) - tol)
        margin_sec = (float(np.min(np.abs(considered - tol_secant)))
                      if considered.size else math.inf)
        worst_margin = min(worst_margin, margin_phi, margin_sec)
    return Theorem2Report(
        trials=trials,
        agreements=agreements,
        agreement_rate=agreements / trials if trials else 1.0,
        discriminated=discriminated,
        worst_margin=worst_margin,
        rows=rows,
    )


def verify_corollary1(spec: Spectrum, split: SubspaceSplit,
                      gnn: SingleLayerGnn, trials: int,
                      rng: np.random.Generator,
                      tol: float = DEFAULT_TOL) -> Corollary1Report:
    """With an all-zero-high bank the two verdicts must agree on every pair.

    Trials alternate between pairs inside the bank-nondiscriminable set,
    generic pairs outside it, and identical pairs.
    """
    for idx, gains in enumerate(gnn.bank):
        _require_zero_high(gains, split.k, f"filter {idx}")
    rows, _ = _run_trials(spec, split, gnn, _mixed_pairs(split, rng, trials, tol), tol)
    return Corollary1Report(trials=trials,
                            verdict_mismatches=sum(r.in_d_h != r.in_d_phi for r in rows),
                            rows=rows)


def _tanh_secant_offsets(a: np.ndarray, b: float) -> np.ndarray:
    """Per entry of a, an offset e with tanh(a) - tanh(a - e) = b * e, else NaN.

    a holds the filter outputs at the nodes and b is the prescribed secant.
    The search runs on the secant minus b, which, unlike the defect
    tanh(a) - tanh(a - e) - b * e, has no trivial root at e = 0. As
    tanh(a) - tanh(a - e) = tanh(e) sech(a)^2 / (1 - tanh(a) tanh(e)), the
    secant minus b has the sign of
    tanh(a) e - e / tanh(e) + sech(a)^2 / b, where e / tanh(e) is 1 at e = 0.
    Every root has |e| < 2/b: the first sign change on a symmetric grid of
    that extent is bracketed, and the bracket is narrowed by evaluating a
    finer grid inside it, for all nodes at once.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    tanh_a = np.tanh(a)
    floor = -1.0 / (b * np.cosh(a) ** 2)
    nodes = np.arange(a.shape[0])

    def first_crossing(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per node, the first cell of e where the secant crosses b, and
        whether there is one."""
        value = tanh_a * e
        value -= np.divide(e, np.tanh(e), out=np.ones(e.shape), where=e != 0.0)
        above = value > floor
        flips = above[:, :-1] != above[:, 1:]
        cell = np.argmax(flips, axis=1)
        return cell, flips[nodes, cell]

    extent = 2.0 / b + 1.0
    grid = np.linspace(-extent, extent, SECANT_GRID_POINTS)
    cell, found = first_crossing(grid[None, :])
    lo, hi = grid[cell], grid[cell + 1]
    for _ in range(REFINE_ROUNDS):
        e = np.linspace(lo, hi, REFINE_POINTS, axis=1)
        cell, _ = first_crossing(e)
        lo, hi = e[nodes, cell], e[nodes, cell + 1]
    return np.where(found, 0.5 * (lo + hi), np.nan)


def overdetermined_probe(spec: Spectrum, split: SubspaceSplit,
                         gnn: SingleLayerGnn, f_idx: int,
                         rng: np.random.Generator) -> float:
    """Residual of the constant-secant system for one random draw.

    Draws a random signal and a random secant b in (0, 1), inverts the
    per-node secant equation of tanh at the outputs of filter f_idx, which
    should respond above the cutoff, and solves the resulting system (one
    equation per node, one unknown per unprotected mode) by normal
    equations. Returns the residual norm, or inf when some node admits no
    nonzero offset at all, which rules out a constant-secant signal even
    more directly.
    """
    x = rng.standard_normal(split.n)
    b = float(rng.uniform(0.0, 1.0))
    targets = _tanh_secant_offsets(bank_forward(gnn.bank, spec, x)[f_idx], b)
    if np.any(np.isnan(targets)):
        return math.inf

    basis = split.v_high                              # (n, n-k)
    gram = basis.T @ basis
    delta = np.linalg.solve(gram, basis.T @ targets)  # normal equations
    return float(np.linalg.norm(basis @ delta - targets))


def verify_corollary2(spec: Spectrum, split: SubspaceSplit,
                      gnn: SingleLayerGnn, trials: int,
                      rng: np.random.Generator,
                      tol: float = DEFAULT_TOL,
                      probe_draws: int = 100) -> Corollary2Report:
    """Strict inclusion of the GNN verdict set under tanh.

    (a) no sampled pair is GNN-nondiscriminable without being
    bank-nondiscriminable, (b) at least one bank-nondiscriminable pair is
    discriminated by the GNN, and (c) the overdetermined constant-secant
    system has residual bounded away from zero on random draws.
    """
    if split.v_high.shape[1] <= 1:
        raise ConfigurationError("the corollary needs more than one unprotected mode")
    if gnn.sigma.kind != "tanh":
        raise ConfigurationError("the corollary is specific to tanh")
    flags = _high_response_flags(gnn.bank, split.k)
    if not np.any(flags):
        raise ConfigurationError("need at least one filter with nonzero high response")
    probed = int(np.argmax(flags))   # the first filter that responds above the cutoff

    rows, _ = _run_trials(spec, split, gnn, _mixed_pairs(split, rng, trials, tol), tol)
    residuals = np.array([overdetermined_probe(spec, split, gnn, probed, rng)
                          for _ in range(probe_draws)])
    return Corollary2Report(
        trials=trials,
        subset_violations=sum(r.in_d_phi and not r.in_d_h for r in rows),
        strictness_witnesses=sum(r.in_d_h and not r.in_d_phi for r in rows),
        probe_draws=probe_draws,
        probe_above_threshold=int(np.sum(residuals > 1e-6)),
        probe_residuals=residuals,
        rows=rows,
    )


def write_trial_csv(rows: list[TrialRow], path: str) -> None:
    """Machine-readable trial log, one row per trial."""
    lines = ["trial,in_d_h,in_d_phi,residual_low_filter,residual_low_gnn,"
             "max_secant_deviation"]
    for r in rows:
        lines.append(
            f"{r.trial},{int(r.in_d_h)},{int(r.in_d_phi)},"
            f"{r.residual_low_filter:.17g},{r.residual_low_gnn:.17g},"
            f"{r.max_secant_deviation:.17g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
