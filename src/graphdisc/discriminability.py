"""Nondiscriminable-set membership, secant analysis, and randomized verifiers.

Two signals are nondiscriminable relative to a split when their difference
carries no energy on the k protected (low-magnitude) modes. Three nested
views of that idea are judged for every pair:

  nul V_k: the difference x - y itself has no low-mode energy
  D_H:     no filtered difference H^f x - H^f y has low-mode energy
  D_phi:   no activated difference sigma(H^f x) - sigma(H^f y) has
           low-mode energy

All membership tests are relative: a residual counts as zero when it is at
most MEMBERSHIP_TOL * max(||x - y||, 1e-30). By linearity the first two
views must agree whenever every filter is nonzero on the protected modes;
judge_pairs computes both and raises NumericalError if they ever disagree,
since that signals a numerical bug rather than a modelling fact.

judge_pairs judges any number T of pairs at once: it filters and activates
the (T, n) stacks of first and second signals and returns the pairs' Trials
(per pair, both verdicts, both residuals and each filter's largest secant
deviation) and the (T, F, n) secants themselves. Every product and norm
in it is taken per signal or per pair, so a pair's numbers carry the same
bits whether it is judged alone, as a stack of one, or among T. draw_pairs
draws a stack of pairs with one standard_normal call (plus one per
rejected pair), in the order drawing them one by one would take. These two
are the only way a pair is judged or drawn, and Trials is the one per-pair
record; a single pair is a stack of one.

A verifier walks its trials in blocks of BLOCK_TRIALS pairs: it draws a
block, judges it, and keeps the block's Trials but not its secants, so its
memory does not grow with the (T, F, n) stacks of all its trials. The trial
log, whose last column is each pair's largest deviation over the filters,
is formatted BLOCK_TRIALS rows at a time. Within a block, judge_pairs
keeps three such stacks: the two filter outputs, which the activations
overwrite (their difference goes over the second), and the filter
difference, which the secants overwrite. A block peaks at those three
plus the larger of one stack (|diff|, for the secants' equality test) and
k/n (the low-mode projection, (T, F, k), squared in place): 4.2 stacks at
F = 32, n = 50 and any k, 55 MB for T = 1,024 pairs (tracemalloc).
Consecutive standard_normal calls continue one stream, so the pairs, the
trial log and the generator's final state are those of drawing and judging
all trials at once.

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

Corollary 2's probe (overdetermined_probe) solves one secant equation per
node and draw. _coarse_crossings brackets each node's first root on a grid
of SECANT_GRID_POINTS, scanned in column blocks of SCAN_BLOCK_BYTES over
the nodes not yet solved, so the grid never exists as one (n, points)
array: a probe peaks at 0.34 MB at n = 20 and 0.93 MB at n = 100
(tracemalloc), where the whole grid took 1.7 and 8.1 MB. A draw with a
node that has no root is inf at once; the others refine their brackets in
REFINE_ROUNDS rounds of one (n, REFINE_POINTS) grid with np.linspace's
bits.

Every verifier returns one VerifierReport: its named counts, in the order
its summary line reports them, its verdict `passed`, computed next to the
statement it tests, and its trial log.

A graph enters every function here as one SubspaceSplit, its Spectrum and
the cutoff index k together, passed first and followed by the GNN where
there is one. A GNN's bank is its (F, n) gains array on the split's own
spectrum; a filter counts as zero above the cutoff when every gain there
is at most ZERO_HIGH_TOL in magnitude.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError, write_lines
from .filters import zero_high_response
from .gnn import Nonlinearity, SingleLayerGnn, bank_forward
from .spectral import SubspaceSplit

SCALE_FLOOR = 1e-30
SECANT_EQUAL_POINTS = 1e-12   # |x_i - y_i| below this uses the derivative
ZERO_HIGH_TOL = 1e-10         # a gain above the cutoff counts as zero up to this
MEMBERSHIP_TOL = 1e-8         # a residual counts as zero up to this times ||x - y||
SECANT_TOL = 1e-9             # theorem 2: a secant deviation counts as zero up to this
SECANT_GRID_POINTS = 8001
SCAN_BLOCK_BYTES = 2 ** 17    # bytes of float64 values in one block of the coarse secant scan
REFINE_POINTS = 257           # each refinement narrows a bracket 256-fold
REFINE_ROUNDS = 6             # 2**-48 of a grid cell: below 1e-14 for b > 1e-3
BLOCK_TRIALS = 4096           # pairs a verifier draws and judges at once


class Trials(NamedTuple):
    """Per-pair columns of T judged pairs: a verifier's trial log."""

    scale: np.ndarray                # (T,) max(||x - y||, SCALE_FLOOR)
    in_d_h: np.ndarray               # (T,) bool
    in_d_phi: np.ndarray             # (T,) bool
    residual_low_filter: np.ndarray  # (T,) Frobenius over f of ||V_low^T (H^f x - H^f y)||
    residual_low_gnn: np.ndarray     # (T,) same, after the nonlinearity
    max_deviation: np.ndarray        # (T, F) max_i |b_i - mean_i b_i|


def _dot_norms(a: np.ndarray) -> np.ndarray:
    """Norm of each row of a (T, m) array, one dot product per row: the
    bits np.linalg.norm gives for that row alone."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _axis_norms(a: np.ndarray) -> np.ndarray:
    """Norms along the last axis, as np.linalg.norm(a, axis=-1) takes them;
    a is squared in place, so pass a fresh array."""
    return np.sqrt(np.add.reduce(np.multiply(a, a, out=a), axis=-1))


def _nul_vk_rows(split: SubspaceSplit,
                 d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each row of the (T, n) differences d has no low-mode energy:
    flags, residuals ||V_low^T d|| and scales max(||d||, SCALE_FLOOR)."""
    scale = np.maximum(_dot_norms(d), SCALE_FLOOR)
    residual = _dot_norms((split.v_low.T @ d[:, :, None])[:, :, 0])
    return residual <= MEMBERSHIP_TOL * scale, residual, scale


def judge_pairs(split: SubspaceSplit, gnn: SingleLayerGnn,
                x: np.ndarray, y: np.ndarray) -> tuple[Trials, np.ndarray]:
    """Filter, activate and judge the pairs (x[t], y[t]) of two (T, n) stacks:
    their Trials and their (T, F, n) secants.

    One pair is a stack of one. A residual counts as zero when it is at
    most MEMBERSHIP_TOL * max(||x - y||, SCALE_FLOOR). Where the two filter
    outputs at a node coincide (within 1e-12) the derivative replaces the
    secant. A signal that is not finite raises ConfigurationError; a pair
    whose direct (nul V_k) and filtered (D_H) verdicts disagree raises
    NumericalError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != split.n:
        raise ShapeError(f"signal stacks have shapes {x.shape} and {y.shape}, "
                         f"expected (T, {split.n})")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigurationError("signal stacks must be finite")
    fx = bank_forward(gnn.bank, split.spectrum, x)     # (T, F, n)
    fy = bank_forward(gnn.bank, split.spectrum, y)
    diff = fx - fy
    direct, _, scale = _nul_vk_rows(split, x - y)
    bound = (MEMBERSHIP_TOL * scale)[:, None]
    low_filter = _axis_norms(diff @ split.v_low)      # (T, F)
    in_d_h = np.all(low_filter <= bound, axis=1)
    disagree = np.flatnonzero(direct != in_d_h)
    if disagree.size:
        t = disagree[0]
        raise NumericalError(
            "direct and filtered nondiscriminability verdicts disagree "
            f"(direct={bool(direct[t])}, filtered={bool(in_d_h[t])}); this indicates "
            "a numerical bug or a bank that vanishes on a protected mode"
        )

    # the activations overwrite the filter outputs, their difference overwrites fy
    gx = gnn.sigma.eval(fx)
    gnn_diff = np.subtract(gx, gnn.sigma.eval(fy), out=fy)
    low_gnn = _axis_norms(gnn_diff @ split.v_low)
    equal = np.abs(diff) < SECANT_EQUAL_POINTS
    np.copyto(diff, 1.0, where=equal)
    secants = np.divide(gnn_diff, diff, out=diff)
    secants[equal] = gnn.sigma.output_derivative(gx[equal])
    # max_i |b_i - mean|: rounding is monotone, so the extremes give its bits
    mean = secants.mean(axis=-1)
    max_dev = np.maximum(secants.max(axis=-1) - mean, mean - secants.min(axis=-1))
    return Trials(scale, in_d_h, np.all(low_gnn <= bound, axis=1),
                  _dot_norms(low_filter), _dot_norms(low_gnn), max_dev), secants


def _high_response_flags(bank: np.ndarray, k: int,
                         must_vanish: tuple[str, ...] = ()) -> np.ndarray:
    """Which rows of the (F, n) gains respond above the index-k cutoff.
    Row i of the first len(must_vanish) rows, named must_vanish[i], must
    not: the first that does raises ConfigurationError."""
    high = np.abs(bank[:, k:])
    flags = np.any(high > ZERO_HIGH_TOL, axis=1)
    for role, flag, row in zip(must_vanish, flags, high):
        if flag:
            raise ConfigurationError(f"{role} must vanish above the cutoff; "
                                     f"max response there is {float(np.max(row)):.3e}")
    return flags


# kinds of drawn pair; a mixed suite cycles through them in this order
INSIDE, OUTSIDE, SAME = 0, 1, 2
MIXED = (INSIDE, OUTSIDE, SAME)
MAX_TRIES = 100   # draws of one pair outside D_H before giving up


def draw_pairs(split: SubspaceSplit, rng: np.random.Generator, trials: int,
               kinds: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, n) stacks of first and second signals of `trials` pairs whose
    kinds (INSIDE, OUTSIDE or SAME) repeat the cycle `kinds`.

    Trial by trial the normals are taken in this order. INSIDE D_H: x,
    then the n - k coefficients delta, and y = x + V_high delta. OUTSIDE
    D_H: x, then y, redrawn while x - y has no low-mode energy at
    MEMBERSHIP_TOL, at most MAX_TRIES draws. SAME: x alone, and y = x. All
    of them come from one standard_normal call. A rejected pair's redraw is
    the 2n normals after it, so every later trial is cut 2n further on and
    the 2n normals missing at the end come from one more call: the
    generator ends where drawing the arrays one by one leaves it. A raise
    after MAX_TRIES rejections leaves it further on, past the later trials'
    normals. A negative trial count, and a `kinds` that is empty or holds
    anything but the three kinds, raise ConfigurationError before any draw.
    """
    if trials < 0:
        raise ConfigurationError(f"trials must be nonnegative, got {trials}")
    if not kinds or not all(isinstance(k, (int, np.integer)) and k in MIXED for k in kinds):
        raise ConfigurationError(
            f"kinds must be a nonempty cycle of INSIDE, OUTSIDE and SAME, got {kinds!r}")
    n, m = split.n, split.v_high.shape[1]
    kind = np.array(kinds)[np.arange(trials) % len(kinds)]
    inside, outside = kind == INSIDE, kind == OUTSIDE
    if m < 1 and inside.any():
        raise ConfigurationError("the split has no high subspace to perturb in")
    sizes = np.array([n + m, 2 * n, n])[kind]   # normals per kind, in kind order
    starts = np.cumsum(sizes) - sizes
    normals = rng.standard_normal(int(sizes.sum()))
    draws = np.ones(trials, dtype=np.int64)
    while True:
        cut = starts[:, None] + np.arange(n)
        x = normals[cut]
        y = x.copy()
        y[outside] = normals[cut[outside] + n]
        flags, _, _ = _nul_vk_rows(split, x[outside] - y[outside])
        rejected = np.flatnonzero(outside)[flags]
        if not rejected.size:
            break
        t = rejected[0]
        if draws[t] == MAX_TRIES:
            raise NumericalError(
                f"could not sample a discriminable pair in {MAX_TRIES} tries")
        draws[t] += 1
        starts[t:] += 2 * n
        normals = np.concatenate((normals, rng.standard_normal(2 * n)))
    # a stacked gemv: each row carries the bits of v_high @ delta alone
    delta = normals[cut[inside, :m] + n]
    y[inside] += (split.v_high @ delta[:, :, None])[:, :, 0]
    return x, y


def _judge_in_blocks(split: SubspaceSplit, gnn: SingleLayerGnn,
                     trials: int, rng: np.random.Generator,
                     kinds: tuple[int, ...]) -> Trials:
    """Draw and judge `trials` pairs whose kinds repeat the cycle `kinds`,
    BLOCK_TRIALS pairs at a time, and return their Trials. Zero trials are
    one empty block, so draw_pairs checks its arguments in any case."""
    blocks = []
    for start in range(0, max(trials, 1), BLOCK_TRIALS):
        turn = start % len(kinds)   # the cycle, rotated to the block's first trial
        x, y = draw_pairs(split, rng, min(BLOCK_TRIALS, trials - start),
                          kinds[turn:] + kinds[:turn])
        # the block's (T, F, n) secants go before the next block is judged
        blocks.append(judge_pairs(split, gnn, x, y)[0])
    return Trials(*map(np.concatenate, zip(*blocks)))


# these three stay only while perfbench/spans.py traces their names
def pair_in_d_phi(split: SubspaceSplit, gnn: SingleLayerGnn, x: np.ndarray,
                  y: np.ndarray) -> Trials:
    return judge_pairs(split, gnn, [x], [y])[0]


def secant_report(split: SubspaceSplit, gnn: SingleLayerGnn, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    return judge_pairs(split, gnn, [x], [y])[1][0]


def sample_pair_in_d_h(split: SubspaceSplit,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return draw_pairs(split, rng, 1, (INSIDE,))


# ---------------------------------------------------------------------------
# constructions used by the verifiers
# ---------------------------------------------------------------------------

def verifier_gnn(split: SubspaceSplit, sigma: Nonlinearity, rng: np.random.Generator,
                 filters: int = 2, high_gain: float = 1.0) -> SingleLayerGnn:
    """Spectral-bank GNN with the shape the theorems hypothesize.

    The first filter is exactly zero above the split's cutoff with unit
    gains below; each other filter has random low gains in [0.5, 1.5) and
    the constant gain high_gain above the cutoff. high_gain=0.0 gives
    corollary 1's bank, every filter zero above the cutoff.
    """
    bank = np.full((filters, split.n), high_gain, dtype=np.float64)
    bank[:1] = zero_high_response(split, np.ones(split.k))   # SingleLayerGnn rejects F < 1
    for row in bank[1:]:
        row[:split.k] = rng.uniform(0.5, 1.5, size=split.k)
    return SingleLayerGnn(bank=bank, sigma=sigma)


def constant_secant_pair(split: SubspaceSplit, gnn: SingleLayerGnn,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A bank-nondiscriminable pair whose filter outputs are all positive.

    Both signals are shifted along the lowest eigenvector until every filter
    output entry of both is at least 0.5, so a piecewise-linear activation
    operates in its unit-slope region and the secants are constant by
    construction. The shift leaves x - y untouched.
    """
    v1 = split.spectrum.eigenvectors[:, 0]
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

    x, y = draw_pairs(split, rng, 1, (INSIDE,))
    both = np.concatenate((x, y))
    lowest = bank_forward(gnn.bank, split.spectrum, both).min(axis=(0, 2))  # (F,)
    shift = max(0.0, float(np.max((0.5 - lowest) / (gains_v1 * float(np.min(v1))))))
    return x[0] + shift * v1, y[0] + shift * v1


# ---------------------------------------------------------------------------
# randomized statement verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifierReport:
    """What a verifier found: its named counts in the order its summary
    line reports them, whether the statement held, and the trial log."""

    trials: int
    counts: dict[str, int | float]
    passed: bool
    columns: Trials = field(repr=False)
    probe_residuals: np.ndarray | None = field(default=None, repr=False)  # corollary 2


def verify_theorem1(split: SubspaceSplit, gnn: SingleLayerGnn,
                    trials: int, rng: np.random.Generator) -> VerifierReport:
    """Sample pairs the bank discriminates; count any the GNN does not.

    Requires the first filter of the bank to vanish above the cutoff; every
    Nonlinearity kind is strictly monotone and 1-Lipschitz, as the theorem
    asks. Passes when there is no counterexample.
    """
    _high_response_flags(gnn.bank, split.k, ("the first filter",))
    columns = _judge_in_blocks(split, gnn, trials, rng, (OUTSIDE,))
    counterexamples = int(np.count_nonzero(columns.in_d_phi))
    return VerifierReport(trials, {"counterexamples": counterexamples},
                          passed=counterexamples == 0, columns=columns)


def verify_theorem2_forward(split: SubspaceSplit, gnn: SingleLayerGnn, trials: int,
                            rng: np.random.Generator) -> VerifierReport:
    """Check the constant-secant biconditional on bank-nondiscriminable pairs.

    For each sampled pair the GNN verdict must coincide with the secants
    being constant across nodes for every filter that responds above the
    cutoff. Counts the agreements, the pairs the GNN discriminates and the
    worst margin by which a trial cleared its decision thresholds; passes
    when every trial agrees.
    """
    if len(gnn.bank) < 2:
        raise ConfigurationError("the biconditional needs at least two filters")
    high = _high_response_flags(gnn.bank, split.k, ("the first filter",))

    columns = _judge_in_blocks(split, gnn, trials, rng, (INSIDE,))
    considered = columns.max_deviation[:, high]   # (T, filters responding high)
    constant = np.all(considered <= SECANT_TOL, axis=1)
    agreements = int(np.count_nonzero(columns.in_d_phi == constant))
    margin_phi = np.abs(columns.residual_low_gnn / columns.scale - MEMBERSHIP_TOL)
    margin_sec = np.abs(considered - SECANT_TOL)
    counts = {
        "agreements": agreements,
        "discriminated": int(np.count_nonzero(~columns.in_d_phi)),
        "worst_margin": float(min(margin_phi.min(initial=math.inf),
                                  margin_sec.min(initial=math.inf))),
    }
    return VerifierReport(trials, counts, passed=agreements == trials, columns=columns)


def verify_corollary1(split: SubspaceSplit, gnn: SingleLayerGnn, trials: int,
                      rng: np.random.Generator) -> VerifierReport:
    """With an all-zero-high bank the two verdicts must agree on every pair.

    Trials alternate between pairs inside the bank-nondiscriminable set,
    generic pairs outside it, and identical pairs. Passes when no pair's
    verdicts differ.
    """
    _high_response_flags(gnn.bank, split.k, tuple(f"filter {i}" for i in range(len(gnn.bank))))
    columns = _judge_in_blocks(split, gnn, trials, rng, MIXED)
    mismatches = int(np.count_nonzero(columns.in_d_h != columns.in_d_phi))
    return VerifierReport(trials, {"verdict_mismatches": mismatches},
                          passed=mismatches == 0, columns=columns)


def _secant_flips(tanh_a: np.ndarray, floor: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row of tanh_a and floor (each (m, 1)), whether the secant minus b
    changes sign across each cell of e, a grid row or one grid per row."""
    value = tanh_a * e
    value -= np.divide(e, np.tanh(e), out=np.ones(e.shape), where=e != 0.0)
    above = value > floor
    return above[:, :-1] != above[:, 1:]


def _coarse_crossings(tanh_a: np.ndarray, floor: np.ndarray,
                      grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of tanh_a and floor, the first cell of the grid where the
    secant crosses b (0 where none does) and whether one does.

    The grid's columns are scanned in blocks over the rows still open, each
    SCAN_BLOCK_BYTES // (8 * open rows) cells wide, and at least one. A
    block spans columns c0 to c1 inclusive and the next starts at c1, so a
    crossing on a block edge is seen. A row leaves the scan at its first
    crossing.
    """
    cell = np.zeros(len(tanh_a), dtype=np.intp)
    found = np.zeros(len(tanh_a), dtype=bool)
    open_ = np.arange(len(tanh_a))
    c0 = 0
    while open_.size and c0 < len(grid) - 1:
        c1 = min(c0 + max(SCAN_BLOCK_BYTES // (8 * open_.size), 1), len(grid) - 1)
        flips = _secant_flips(tanh_a[open_], floor[open_], grid[c0:c1 + 1])
        hit = flips.any(axis=1)
        cell[open_[hit]] = c0 + np.argmax(flips[hit], axis=1)
        found[open_[hit]] = True
        open_ = open_[~hit]
        c0 = c1
    return cell, found


def _refine_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo, hi, REFINE_POINTS, axis=1), built row-major with its
    arithmetic: column k is k * step + lo and the last column is hi, or,
    when any row's step is 0, every row's column k is
    (k / (REFINE_POINTS - 1)) * (hi - lo) + lo."""
    k = np.arange(REFINE_POINTS, dtype=np.float64)
    delta = (hi - lo)[:, None]
    step = delta / (REFINE_POINTS - 1)
    e = (k / (REFINE_POINTS - 1)) * delta if np.any(step == 0.0) else k * step
    e += lo[:, None]
    e[:, -1] = hi
    return e


def _tanh_secant_offsets(a: np.ndarray, b: float) -> np.ndarray | None:
    """Per entry of a, an offset e with tanh(a) - tanh(a - e) = b * e; None
    when some entry has none.

    a holds the filter outputs at the nodes and b is the prescribed secant.
    The search runs on the secant minus b, which, unlike the defect
    tanh(a) - tanh(a - e) - b * e, has no trivial root at e = 0. As
    tanh(a) - tanh(a - e) = tanh(e) sech(a)^2 / (1 - tanh(a) tanh(e)), the
    secant minus b has the sign of
    tanh(a) e - e / tanh(e) + sech(a)^2 / b, where e / tanh(e) is 1 at e = 0.
    Every root has |e| < 2/b: _coarse_crossings brackets the first sign
    change on a symmetric grid of that extent, and when every entry has one
    the brackets are narrowed by evaluating a finer grid inside each. Each
    round builds all entries' finer grids in one _refine_grid call, since
    np.linspace, whose bits it keeps, picks its zero-step branch per call.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    tanh_a = np.tanh(a)
    floor = -1.0 / (b * np.cosh(a) ** 2)
    extent = 2.0 / b + 1.0
    grid = np.linspace(-extent, extent, SECANT_GRID_POINTS)
    cell, found = _coarse_crossings(tanh_a, floor, grid)
    if not found.all():
        return None
    nodes = np.arange(a.shape[0])
    lo, hi = grid[cell], grid[cell + 1]
    for _ in range(REFINE_ROUNDS):
        e = _refine_grid(lo, hi)
        cell = np.argmax(_secant_flips(tanh_a, floor, e), axis=1)
        lo, hi = e[nodes, cell], e[nodes, cell + 1]
    return 0.5 * (lo + hi)


def overdetermined_probe(split: SubspaceSplit, gnn: SingleLayerGnn, f_idx: int,
                         rng: np.random.Generator) -> float:
    """Residual of the constant-secant system for one random draw.

    Draws a random signal and a random secant b in [0, 1), inverts the
    per-node secant equation of tanh at the outputs of filter f_idx, which
    should respond above the cutoff, and solves the resulting system (one
    equation per node, one unknown per unprotected mode) by normal
    equations. Returns the residual norm, or inf when some node admits no
    nonzero offset at all, which rules out a constant-secant signal even
    more directly (at b = 0 only e = 0 solves the secant equation).
    """
    x = rng.standard_normal(split.n)
    b = float(rng.uniform(0.0, 1.0))
    if b == 0.0:
        return math.inf
    targets = _tanh_secant_offsets(bank_forward(gnn.bank, split.spectrum, x)[f_idx], b)
    if targets is None:
        return math.inf

    basis = split.v_high                              # (n, n-k)
    gram = basis.T @ basis
    delta = np.linalg.solve(gram, basis.T @ targets)  # normal equations
    return float(np.linalg.norm(basis @ delta - targets))


def verify_corollary2(split: SubspaceSplit, gnn: SingleLayerGnn, trials: int,
                      rng: np.random.Generator, probe_draws: int = 100) -> VerifierReport:
    """Strict inclusion of the GNN verdict set under tanh.

    Passes when (a) no sampled pair is GNN-nondiscriminable without being
    bank-nondiscriminable, (b) at least one bank-nondiscriminable pair is
    discriminated by the GNN, and (c) the overdetermined constant-secant
    system has residual above 1e-6 on at least 95% of the probe draws.
    A probe_draws that is not an integer (a bool is not), or is below 1,
    raises ConfigurationError before any draw.
    """
    if isinstance(probe_draws, bool) or not isinstance(probe_draws, (int, np.integer)):
        raise ConfigurationError(f"probe_draws must be an integer, got {probe_draws!r}")
    if probe_draws < 1:
        raise ConfigurationError(f"probe_draws must be at least 1, got {probe_draws}")
    if split.v_high.shape[1] <= 1:
        raise ConfigurationError("the corollary needs more than one unprotected mode")
    if gnn.sigma.kind != "tanh":
        raise ConfigurationError("the corollary is specific to tanh")
    flags = _high_response_flags(gnn.bank, split.k)
    if not np.any(flags):
        raise ConfigurationError("need at least one filter with nonzero high response")
    probed = int(np.argmax(flags))   # the first filter that responds above the cutoff

    columns = _judge_in_blocks(split, gnn, trials, rng, MIXED)
    residuals = np.array([overdetermined_probe(split, gnn, probed, rng)
                          for _ in range(probe_draws)])
    counts = {
        "subset_violations": int(np.count_nonzero(columns.in_d_phi & ~columns.in_d_h)),
        "strictness_witnesses": int(np.count_nonzero(columns.in_d_h & ~columns.in_d_phi)),
        "probe_above_threshold": int(np.sum(residuals > 1e-6)),
        "probe_draws": probe_draws,
    }
    passed = (counts["subset_violations"] == 0 and counts["strictness_witnesses"] >= 1
              and counts["probe_above_threshold"] >= 0.95 * probe_draws)
    return VerifierReport(trials, counts, passed, columns, probe_residuals=residuals)


def _trial_lines(columns_per_graph: list[Trials]):
    """The trial log's header and rows; trials are numbered across the
    graphs in order, and BLOCK_TRIALS rows are formatted at a time."""
    yield "trial,in_d_h,in_d_phi,residual_low_filter,residual_low_gnn,max_secant_deviation"
    row = "%d,%d,%d,%.17g,%.17g,%.17g".__mod__   # printf-style: faster than str.format
    first = 0
    for log in columns_per_graph:
        columns = (log.in_d_h, log.in_d_phi, log.residual_low_filter, log.residual_low_gnn,
                   log.max_deviation.max(axis=1))
        for start in range(0, len(log.in_d_h), BLOCK_TRIALS):
            block = (column[start:start + BLOCK_TRIALS].tolist() for column in columns)
            yield from map(row, zip(itertools.count(first + start), *block))
        first += len(log.in_d_h)


def write_trial_csv(columns_per_graph: list[Trials], path: str) -> None:
    """Machine-readable trial log, one row per trial of the graphs' columns."""
    write_lines(path, _trial_lines(columns_per_graph))
