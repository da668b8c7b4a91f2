"""Pairing networks that chain the two-system protocol across many copies.

Two schedulers are provided.  The tournament network pairs the surviving
forward branches stage by stage and needs 2^n systems for n time steps.  The improved
network keeps 2m systems: every step pairs, in index order, systems whose
integer flow-time tau currently coincides (lower index moves to tau-1, higher
to tau+1), and any pair meeting again at tau = 0 after the first step is
replaced by fresh initial states before the protocol acts.  Iterating until
no two systems share a tau leaves the unique terminal profile

    tau_j(step*) = j - m - 1  (j <= m),   j - m  (j > m)

in 1-based labels, with step* = O(m^2).

Each protocol application deposits one unit of second-order deviation at the
pair's common tau and averages whatever the two systems had accumulated; the
resulting coefficient rows depend only on the schedule, never on the
Hamiltonian.  A network run is anything that yields its pairs one step at a
time as (lo, hi, tau, fresh) blocks and knows its m and n_systems: a stored
Schedule, or the kernels.ImprovedSteps stream that the chip-firing loop of
:mod:`swapcool.kernels` fires one whole network step at a time.
propagate_coefficients accumulates either and simulate_network_exact
propagates either; build_improved_schedule stores the stream as event
arrays; improved_schedule_stats keeps step* and the terminal profile only.

A CheckedRun replays a run under the pairing rules as it is iterated.
Schedule.validate passes its events through one.  improved_run wraps the
stream in one, its header taken from improved_schedule_stats, and
tournament_run wraps the TournamentStages made stage by stage, its header
the closed form; so schedule_to_json writes either network while holding
the per-system taus, one step and one text block of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import improved_terminal_profile
from .hamiltonian import Spectrum
from .protocol import protocol_unitary
from .quantum import DensityOperator, PureState, _check_dims, csv_table
from .flow import find_steps_for_p1, level_flow

EXACT_ORACLE_JOINT_CAP = 1024
EXACT_ORACLE_ENERGY_TOL = 1e-10
TOURNAMENT_MAX_N = 20   # 2^20 systems, about a million pair events (as at m=128)
IMPROVED_MAX_M = 256    # the largest m whose schedule criterion 08 verifies; 5.6 M pair events
# one `swapcool schedule` run's pair events, the largest improved and tournament schedules:
# a bound on what one run writes (about 62 B of JSON a pair, 0.41 GB at the cap), not on
# its memory: an improved schedule is streamed, never held
SCHEDULE_MAX_PAIRS = kernels.improved_pair_count(IMPROVED_MAX_M) + 2 ** TOURNAMENT_MAX_N - 1
JSON_BLOCK_PAIRS = 1 << 12   # pair events encoded per block of the schedule JSON
XI_MAX_M_ALPHA = 1 << 20     # steps of one xi point, ~65 B each; the pinned sweep's largest is 463


@dataclass(frozen=True)
class Schedule:
    """Pair events of one network run, in canonical (step, lo) order.

    Indices are 0-based; ``tau_common`` is the shared tau at pairing time and
    ``fresh`` marks pairs reset to the initial state before the protocol.
    Iterating yields its steps as (lo, hi, tau, fresh) column slices.
    """

    kind: str
    m: int
    n_systems: int
    step_star: int
    step: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tau_common: np.ndarray
    fresh: np.ndarray
    terminal_tau: np.ndarray

    @property
    def n_pairs(self) -> int:
        return int(self.step.size)

    def __iter__(self):
        if not self.n_pairs:
            return
        bounds = (np.flatnonzero(self.step[1:] != self.step[:-1]) + 1).tolist()
        for s0, s1 in zip([0] + bounds, bounds + [self.step.size]):
            yield self.lo[s0:s1], self.hi[s0:s1], self.tau_common[s0:s1], self.fresh[s0:s1]

    def checked(self) -> CheckedRun:
        """This schedule's header and step blocks as a CheckedRun."""
        return CheckedRun(self.kind, self.m, self.n_systems, self.step_star,
                          self.terminal_tau, self)

    def validate(self) -> None:
        """Check the stored shape and the kind, and replay the events through
        CheckedRun; raises AssertionError on the first violation.

        The kind is "improved" over 2m >= 2 systems or "tournament" with
        1 <= m <= TOURNAMENT_MAX_N.  A stored run has one shape: five event
        columns of one length, and step blocks that are exactly 0, 1, ...,
        step_star - 1 in order.  The replay checks every step's pairs, the
        final taus and an improved run's closed form; a tournament must also
        be build_tournament_schedule(m) column for column.
        """
        n, steps, star = self.n_pairs, self.step, self.step_star
        if self.kind not in ("improved", "tournament"):
            raise AssertionError(f"unknown schedule kind {self.kind!r}")
        not_kind = f"not the {self.kind} network of m = {self.m} over {self.n_systems} systems"
        if not (self.n_systems == 2 * self.m >= 2 if self.kind == "improved"
                else 1 <= self.m <= TOURNAMENT_MAX_N):
            raise AssertionError(not_kind)
        lengths = {f: getattr(self, f).size for f in ("step", "lo", "hi", "tau_common", "fresh")}
        if len(set(lengths.values())) > 1:
            raise AssertionError(f"event columns differ in length: {lengths}")
        # in step order from 0, the steps run 0, 1, 2, ... iff each change is the next value
        gapless = not n or (steps[0] == 0 and not np.any(steps[1:] < steps[:-1])
                            and np.count_nonzero(steps[1:] != steps[:-1]) == steps[-1])
        if not gapless or (int(steps[-1]) + 1 if n else 0) != star:
            raise AssertionError(f"steps are not 0 to step_star - 1 = {star - 1} in order")
        for _ in self.checked():
            pass
        if self.kind == "tournament":
            closed = build_tournament_schedule(self.m)
            if not all(np.array_equal(getattr(self, f), getattr(closed, f)) for f in
                       ("n_systems", "step", "lo", "hi", "tau_common", "fresh", "terminal_tau")):
                raise AssertionError(not_kind)


@dataclass(frozen=True)
class CheckedRun:
    """A network run's header and its step blocks, replayed under the
    pairing rules while they are iterated: the one check that both a stored
    Schedule and a kernels.ImprovedSteps stream pass before they are written.

    Iterating yields each step's (lo, hi, tau, fresh) block with its pairs in
    lo order.  Before a block is yielded its pairs must satisfy 0 <= lo < hi
    < n_systems, share no member, both hold the block's tau, and be flagged
    fresh exactly when they meet at tau = 0 after step 0; then the lower
    member moves to tau-1 and the higher to tau+1.  After the last block the
    steps must number step_star, the replayed taus equal terminal_tau, and
    an improved run have its closed-form pair count and terminal profile.
    AssertionError on the first violation.
    """

    kind: str
    m: int
    n_systems: int
    step_star: int
    terminal_tau: np.ndarray
    blocks: object          # iterable of (lo, hi, tau, fresh) step blocks

    def __iter__(self):
        n, star = self.n_systems, self.step_star
        tau = np.zeros(n, dtype=np.int64)
        last = np.full(n, -1, dtype=np.int32)     # the last step each system paired in
        # scratch and 0-d constants, so that no check converts a Python scalar
        now = np.zeros((), dtype=last.dtype)
        zero, one = np.zeros((), dtype=np.int64), np.ones((), dtype=np.int64)
        paired_now = np.empty(n, dtype=bool)
        step = pairs = 0
        for lo, hi, common, fresh in self.blocks:
            if step == star:
                raise AssertionError(f"the run has more steps than step_star = {star}")
            if np.count_nonzero(lo[1:] <= lo[:-1]):     # not yet in lo order
                order = lo.argsort()
                lo, hi, common, fresh = lo[order], hi[order], common[order], fresh[order]
            # count_nonzero: a step is ~70 pairs, where .any() costs several times more
            if lo.size and (lo[0] < 0 or hi.max() >= n or np.count_nonzero(lo >= hi)):
                raise AssertionError(f"pairs are not 0 <= lo < hi < {n}")
            now.fill(step)
            last[lo] = now
            last[hi] = now
            if np.count_nonzero(np.equal(last, now, out=paired_now)) != 2 * lo.size:
                raise AssertionError(f"pairs within step {step} are not disjoint")
            if np.count_nonzero(tau[lo] != common) or np.count_nonzero(tau[hi] != common):
                raise AssertionError(f"paired systems disagree on tau at step {step}")
            # fresh exactly where the pair meets at tau 0, and nowhere at step 0
            if np.count_nonzero(np.logical_xor(fresh, np.equal(common, zero)) if step else fresh):
                raise AssertionError(f"fresh flags wrong at step {step}")
            tau[lo] = common - one
            tau[hi] = common + one
            yield lo, hi, common, fresh
            step += 1
            pairs += lo.size
        if step != star:
            raise AssertionError(f"the run has {step} steps, not step_star = {star}")
        if self.kind == "improved" and pairs != kernels.improved_pair_count(self.m):
            raise AssertionError(f"pair count {pairs}, not the improved network's "
                                 f"{kernels.improved_pair_count(self.m)}")
        if not np.array_equal(tau, self.terminal_tau):
            raise AssertionError("terminal tau profile mismatch")
        if self.kind == "improved" and np.any(
                self.terminal_tau != improved_terminal_profile(self.m)):
            raise AssertionError("improved terminal profile mismatch")


def build_improved_schedule(m: int) -> Schedule:
    """The improved network's pair stream stored as event arrays, int32 in
    (step, lo) order, filled step by step into columns of the stream's exact
    pair count (which the stream checks)."""
    steps = kernels.ImprovedSteps(m)
    es, el, eh, et = (np.empty(steps.n_pairs, dtype=np.int32) for _ in range(4))
    fresh = np.empty(steps.n_pairs, dtype=np.uint8)
    end = 0
    for step, (lo, hi, tau, f) in enumerate(steps):
        start, end = end, end + lo.size
        order = lo.argsort()     # pairs ordered by lo within the step
        es[start:end] = step
        el[start:end] = lo[order]
        eh[start:end] = hi[order]
        et[start:end] = tau[order]
        fresh[start:end] = f[order]
    return Schedule("improved", steps.m, steps.n_systems, steps.step_star, es, el, eh, et,
                    fresh, steps.terminal_tau)


def improved_schedule_stats(m: int) -> tuple[int, np.ndarray]:
    """(step_star, terminal_tau) without materialising the event stream."""
    return kernels.improved_schedule_stats_many([m])[0]


def improved_run(m: int) -> CheckedRun:
    """The improved network of m as a CheckedRun that holds no event column:
    the header from the counts-only improved_schedule_stats, the pairs
    streamed from kernels.ImprovedSteps as they fire."""
    step_star, terminal_tau = improved_schedule_stats(m)
    return CheckedRun("improved", int(m), 2 * int(m), step_star, terminal_tau,
                      kernels.ImprovedSteps(m))


def check_tournament_n(n: int) -> None:
    if not 1 <= n <= TOURNAMENT_MAX_N:
        raise ValueError(f"tournament n must lie in [1, {TOURNAMENT_MAX_N}], got {n}")


class TournamentStages:
    """The tournament network over 2^n systems, stage by stage: stage s pairs
    the surviving forward branches at tau = s, the higher index of each pair
    advancing.  The survivors of stage s are the indices 2^s - 1 mod 2^s, so
    its pairs are hi = 2^(s+1) - 1 mod 2^(s+1) and lo = hi - 2^s, in lo
    order.  No fresh replacements.  Iterating yields each stage's int32
    (lo, hi, tau, fresh) block, made only when it is reached."""

    def __init__(self, n: int):
        check_tournament_n(n)
        self.m = int(n)
        self.n_systems = 2 ** self.m

    def __iter__(self):
        for s in range(self.m):
            hi = np.arange(2 ** (s + 1) - 1, self.n_systems, 2 ** (s + 1), dtype=np.int32)
            yield (hi - (1 << s), hi, np.full(hi.size, s, dtype=np.int32),
                   np.zeros(hi.size, dtype=np.uint8))

    def terminal_tau(self) -> np.ndarray:
        """Closed-form terminal tau: an index ending in t < n one bits advances
        at stages 0..t-1 and falls back at stage t, so its tau is t - 1; the
        last system advances at all n stages."""
        tau = np.full(self.n_systems, -1, dtype=np.int64)
        for t in range(1, self.m):
            tau[2 ** t - 1::2 ** t] += 1     # the indices ending in at least t one bits
        tau[-1] = self.m
        return tau


def tournament_run(n: int) -> CheckedRun:
    """The tournament of n as a CheckedRun that holds one stage at a time: the
    header from the closed form (step* = n), the stages made as they are walked."""
    stages = TournamentStages(n)
    return CheckedRun("tournament", stages.m, stages.n_systems, stages.m,
                      stages.terminal_tau(), stages)


def build_tournament_schedule(n: int) -> Schedule:
    """The tournament's stages (see TournamentStages) stored as event arrays."""
    stages = TournamentStages(n)
    lo, hi, tau, fresh = (np.concatenate(col) for col in zip(*stages))
    return Schedule("tournament", stages.m, stages.n_systems, stages.m, tau.copy(), lo, hi,
                    tau, fresh, stages.terminal_tau())


@dataclass(frozen=True)
class CoefficientMatrix:
    """Deviation weights K[j, k], one row per system, columns k = 1..2m+1
    indexing flow times k' = k - m - 1 in units of the protocol step."""

    m: int
    k: np.ndarray

    @property
    def n_systems(self) -> int:
        return int(self.k.shape[0])

    def row(self, j: int) -> np.ndarray:
        """Row of 1-based system j."""
        return self.k[j - 1]

    def to_csv(self) -> str:
        header = ["j"] + [f"k{c}" for c in range(1, self.k.shape[1] + 1)]
        return csv_table(header, ([j] + row.tolist() for j, row in enumerate(self.k, start=1)))


def propagate_coefficients(run) -> CoefficientMatrix:
    """K of a network run: a stored Schedule, or a kernels.ImprovedSteps
    stream accumulated as the network fires it, never holding the events."""
    return CoefficientMatrix(run.m, kernels.accumulate_rows(run.n_systems, run.m, run))


def rescale_row(base: CoefficientMatrix, m: int) -> np.ndarray:
    """Generate the terminal row j = 2m of K^(2m) from a base matrix via the
    scaling law.

    K^(2m)[2m, k'] ~ L * K^(2m0)[2m0, k'/L] with L = m/m0, linearly
    interpolated in the deviation-time coordinate k' (zero outside the base
    range); the terminal row maps onto the base terminal row for every L.
    """
    m0 = base.m
    lam = m / m0
    kp = np.arange(-m, m + 1, dtype=float)
    return lam * np.interp(kp / lam, np.arange(-m0, m0 + 1, dtype=float),
                           base.k[-1], left=0.0, right=0.0)


@dataclass(frozen=True)
class ScalingReport:
    """Relative deviations between K^(2m) and the rescaled K^(2*lam*m)."""

    m_small: int
    m_large: int
    lam: int
    cuts: list            # per-cut dicts: axis, position, median, max, count
    global_median: float
    global_max: float
    n_compared: int

    def to_json(self) -> dict:
        return {
            "m_small": self.m_small, "m_large": self.m_large, "lambda": self.lam,
            "global_median": self.global_median, "global_max": self.global_max,
            "n_compared": self.n_compared, "cuts": self.cuts,
        }


def scaling_cut_positions(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The eight standard cuts of a 2m-row coefficient matrix: four 1-based
    rows (row 1 for m // 2 = 0) and four deviation-time columns k', at quarter positions."""
    return (max(1, m // 2), m, 3 * m // 2, 2 * m), (-m // 2, 0, m // 2, m - 1)


def rescaled_frame(k_large: CoefficientMatrix, m: int) -> np.ndarray:
    """K^(2 lam m) read in the frame of a matrix with this m, lam = k_large.m / m.

    Entry (j, k') is K^(2 lam m)[lam j, lam k'] / lam for 1-based rows j = 1..2m
    and columns k' = -m..m.  ValueError unless k_large.m is a multiple of m.
    """
    lam, rest = divmod(k_large.m, m)
    if rest:
        raise ValueError(f"K of m = {k_large.m} has no frame of m = {m}: not a multiple")
    rows = lam * np.arange(1, 2 * m + 1) - 1
    cols = lam * np.arange(-m, m + 1) + k_large.m
    return k_large.k[np.ix_(rows, cols)] / lam


def _cut_summary(axis: str, position: int, d: np.ndarray) -> dict:
    return {"axis": axis, "position": position,
            "median": float(np.median(d)) if d.size else 0.0,
            "max": float(d.max()) if d.size else 0.0,
            "count": int(d.size)}


def check_scaling_law(k_small: CoefficientMatrix, k_large: CoefficientMatrix) -> ScalingReport:
    """Compare K^(2m) with lam^{-1} K^(2*lam*m), lam = k_large.m / k_small.m,
    on the eight standard cuts (four rows and four columns at quarter
    positions) plus globally; ValueError unless lam is an integer.

    Columns are matched in deviation-time coordinates (k' -> lam*k'), the
    alignment that anchors both matrices at k' = 0.  Each entry's deviation
    is |a - b| / max(|a|, |b|); entries where both sides are at most 1e-3 of
    the small row's peak are skipped.
    """
    ms, ml, a = k_small.m, k_large.m, k_small.k
    b = rescaled_frame(k_large, ms)
    keep = np.maximum(a, b) > 1e-3 * a.max(axis=1, keepdims=True)
    dev = np.zeros_like(a)
    dev[keep] = np.abs(a - b)[keep] / np.maximum(np.abs(a), np.abs(b))[keep]
    rows, columns = scaling_cut_positions(ms)
    cuts = [_cut_summary("row", j, dev[j - 1][keep[j - 1]]) for j in rows]
    cuts += [_cut_summary("column", kp, dev[:, kp + ms][keep[:, kp + ms]]) for kp in columns]
    whole = _cut_summary("all", 0, dev[keep])
    return ScalingReport(ms, ml, ml // ms, cuts, whole["median"], whole["max"], whole["count"])


@dataclass(frozen=True)
class XiResult:
    dim: int
    alpha: int
    m_alpha: int
    xi: float


def xi_result(spec: Spectrum, phi0: PureState, dt: float, alpha: int,
              k_base: CoefficientMatrix) -> XiResult:
    """One diagnostic point: the minimum step count for the target population
    and the accumulated-deviation expectation there, coefficients rescaled
    from the base matrix.  m_alpha = 0 (target already met) gives xi = 0."""
    m = m_alpha(spec, phi0, dt, alpha)
    if m == 0:
        return XiResult(spec.dim, alpha, 0, 0.0)
    if m > XI_MAX_M_ALPHA:
        raise ValueError(f"dt = {dt!r} needs m_alpha = {m} steps, over the cap "
                         f"{XI_MAX_M_ALPHA}")
    row = rescale_row(k_base, m)
    return XiResult(spec.dim, alpha, m, xi_statistic(spec, phi0, m, dt, row))


def xi_statistic(spec: Spectrum, phi0: PureState, m: int, dt: float,
                 k_row: np.ndarray) -> float:
    """Expectation of the accumulated deviation operator in the target state.

    xi = <phi_T| dt^2 sum_k K[2m,k] D[phi_{k'dt}] |phi_T> with T = m*dt.  On
    the levels phi_T is a = sqrt(P_T) and the sum is LevelFlow.deviation M,
    so xi = dt^2 a^T M a; ValueError when that is not finite (dt > ~1.3e154).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k_row = np.asarray(k_row, dtype=float)
    if k_row.shape != (2 * m + 1,):
        raise ValueError("coefficient row must have length 2m+1")
    lf = level_flow(phi0, spec)
    target = np.sqrt(lf.populations([m * dt])[0])
    dev = lf.deviation((np.arange(2 * m + 1) - m) * dt, k_row)
    xi = float(dt * dt * (target @ dev @ target))
    if not np.isfinite(xi):
        raise ValueError(f"xi at dt = {dt!r}, m = {m} is not finite: {xi!r}")
    return xi


def m_alpha(spec: Spectrum, phi0: PureState, dt: float, alpha: int) -> int:
    """Minimum step count m with ground population >= (1/2)(3/log2 dim)^alpha.

    Uses the ground-subspace population (equal to J times the lowest-level
    population for uniform starts), the quantity the degenerate-ground model
    plots; at dim 8 the target is 1/2 for every alpha.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if spec.dim < 8:
        raise ValueError("target schedule is defined for dim >= 8")
    target = 0.5 * (np.log2(8) / np.log2(spec.dim)) ** alpha
    return find_steps_for_p1(phi0, spec, target, dt)


def predict_reduced_state(sched: Schedule, j: int, kmat: CoefficientMatrix,
                          spec: Spectrum, phi0: PureState, dt: float) -> DensityOperator:
    """Second-order prediction for the terminal state of 1-based system j:
    the flow projector at tau_j(step*) dt minus the K-weighted deviations,
    evaluated on the levels and mapped to the eigenbasis."""
    if kmat.n_systems != sched.n_systems:
        raise ValueError(f"K has {kmat.n_systems} rows for {sched.n_systems} systems")
    if not 1 <= j <= kmat.n_systems:
        raise ValueError(f"system j must lie in [1, {kmat.n_systems}], got {j}")
    lf = level_flow(phi0, spec)
    target = np.sqrt(lf.populations([int(sched.terminal_tau[j - 1]) * dt])[0])
    dev = lf.deviation((np.arange(2 * kmat.m + 1) - kmat.m) * dt, kmat.k[j - 1])
    return DensityOperator(lf.to_eigenbasis(np.outer(target, target) - dt * dt * dev))


# --- exact joint-space oracle -------------------------------------------------

def simulate_network_exact(run, spec: Spectrum, phi0: PureState,
                           dt: float, return_energy_trace: bool = False):
    """Propagate the full joint density matrix through a network run: a
    stored Schedule, a kernels.ImprovedSteps stream or any other run with
    n_systems that yields its (lo, hi, tau, fresh) step blocks.

    Correlations between systems are kept exactly; a fresh replacement traces
    the pair out (discarding its correlations) and tensors in new copies of
    the initial state.  Total energy is asserted invariant, to
    EXACT_ORACLE_ENERGY_TOL, across every protocol application (it only jumps
    at fresh replacements).  Toy scale only: dim^n_systems is capped at 1024.
    With return_energy_trace the per-pair totals and the replaced members'
    energies come back as well, each record naming its block's ordinal as
    the step.

    rho is held as a 2n-axis tensor: axis f is system f's row index and axis
    n + f its column index, so a pair unitary contracts two axes on each side
    (dim^(2n+2) multiply-adds) instead of multiplying joint x joint matrices.
    """
    _check_dims(phi0, spec)
    dim, n = spec.dim, run.n_systems
    if dim ** n > EXACT_ORACLE_JOINT_CAP:
        raise ValueError(f"joint dimension {dim ** n} exceeds cap {EXACT_ORACLE_JOINT_CAP}")
    amp = phi0.amplitudes
    psi = amp
    for _ in range(n - 1):
        psi = np.kron(psi, amp)
    rho = np.outer(psi, psi.conj()).reshape((dim,) * (2 * n))
    rows, cols = list(range(n)), list(range(n, 2 * n))
    # Eq.-(5) slot order is (cooled, heated) = (hi, lo)
    u4 = protocol_unitary(spec, dt).reshape((dim,) * 4)
    proj = np.outer(amp, amp.conj())
    h_single = spec.eigenvalues

    def member_energies(r):
        pops = np.einsum(r, rows + rows, rows).real
        return [float(pops.sum(axis=tuple(g for g in rows if g != f)) @ h_single)
                for f in rows]

    def reduced_state(r, f):
        labels = rows + rows
        labels[n + f] = n + f
        return np.einsum(r, labels, [f, n + f])

    energies = member_energies(rho)
    trace = []
    pairs = ((step, lo, hi, replace) for step, (los, his, _, fresh) in enumerate(run)
             for lo, hi, replace in zip(los.tolist(), his.tolist(), fresh.tolist()))
    for step, lo, hi, replace in pairs:
        record = {"step": step, "pair": (lo, hi),
                  "fresh": bool(replace), "total_before": sum(energies)}
        if replace:
            record["replaced_energies"] = (energies[lo], energies[hi])
            traced = rows + cols
            traced[n + lo], traced[n + hi] = lo, hi
            rest = [a for a in rows + cols if a not in (lo, hi, n + lo, n + hi)]
            rho = np.einsum(np.einsum(rho, traced, rest), rest,
                            proj, [lo, n + lo], proj, [hi, n + hi], rows + cols)
            energies = member_energies(rho)
        record["total_after_fresh"] = sum(energies)
        rho = np.moveaxis(np.tensordot(u4, rho, axes=([2, 3], [hi, lo])), [0, 1], [hi, lo])
        rho = np.moveaxis(np.tensordot(rho, u4.conj(), axes=([n + hi, n + lo], [2, 3])),
                          [-2, -1], [n + hi, n + lo])
        energies = member_energies(rho)
        record["total_after"] = sum(energies)
        drift = record["total_after"] - record["total_after_fresh"]
        if abs(drift) > EXACT_ORACLE_ENERGY_TOL:
            raise AssertionError(f"step {step}, pair ({lo}, {hi}): total energy drifted "
                                 f"by {drift:.3e}, above energy_tol "
                                 f"{EXACT_ORACLE_ENERGY_TOL:.3e}")
        trace.append(record)
    reduced = [DensityOperator(reduced_state(rho, f)) for f in rows]
    if return_energy_trace:
        return reduced, trace
    return reduced


# --- serialization -----------------------------------------------------------

def schedule_to_json(run, write) -> int:
    """Pass write a run's pair events, step* and terminal profile as UTF-8
    JSON with json.dumps's default separators, and return the pair count.

    The run is a stored Schedule or a CheckedRun; each block it yields is
    one step, numbered by its ordinal.  Steps are gathered, and a longer
    step cut, into blocks of about JSON_BLOCK_PAIRS pairs, each encoded and
    written before the next, so only one such block of the text is ever in
    memory.  The tau of every system at every step follows from replaying
    the pairs in order (lower member -1, higher +1), as CheckedRun does.
    """
    head = json.dumps({"kind": run.kind, "m": run.m, "n_systems": run.n_systems,
                       "step_star": run.step_star})
    write(f'{head[:-1]}, "pairs": ['.encode())
    texts, pairs = [], 0

    def flush():
        nonlocal texts, pairs
        if texts:
            if pairs:
                write(b", ")
            write(", ".join(texts).encode())
            pairs += len(texts)
            texts = []

    for step, block in enumerate(run):
        # a tournament's first step alone is half its pairs
        for start in range(0, block[0].size, JSON_BLOCK_PAIRS):
            lo, hi, tau, fresh = (col[start:start + JSON_BLOCK_PAIRS].tolist() for col in block)
            texts += [f'{{"step": {step}, "pair": [{a}, {b}], "tau": {t}, '
                      f'"fresh": {"true" if f else "false"}}}'
                      for a, b, t, f in zip(lo, hi, tau, fresh)]
            if len(texts) >= JSON_BLOCK_PAIRS:
                flush()
    flush()
    write(f'], "terminal_tau": {json.dumps(run.terminal_tau.tolist())}}}'.encode())
    return pairs


def schedule_from_json(obj: dict) -> Schedule:
    """The schedule a JSON object holds, once it passes Schedule.validate."""
    pairs = obj["pairs"]
    arr = lambda key, dtype: np.asarray([p[key] for p in pairs], dtype=dtype)
    lo, hi = np.asarray([p["pair"] for p in pairs], dtype=np.int32).reshape(len(pairs), 2).T
    sched = Schedule(obj["kind"], int(obj["m"]), int(obj["n_systems"]),
                     int(obj["step_star"]), arr("step", np.int32), lo, hi,
                     arr("tau", np.int32), arr("fresh", np.uint8),
                     np.asarray(obj["terminal_tau"], dtype=np.int64))
    sched.validate()
    return sched


def coefficients_to_json(kmat: CoefficientMatrix, write) -> None:
    """Pass write ``json.dumps({"m": m, "k": k.tolist()})`` as UTF-8, encoded
    one row at a time."""
    write(f'{{"m": {json.dumps(kmat.m)}, "k": ['.encode())
    for j, row in enumerate(kmat.k):
        if j:
            write(b", ")
        write(json.dumps(row.tolist()).encode())
    write(b"]}")


def coefficients_from_json(obj: dict) -> CoefficientMatrix:
    """ValueError unless ``obj`` holds an integer m >= 1 and numbers k of shape (2m, 2m+1)."""
    m = obj.get("m") if isinstance(obj, dict) else None
    if type(m) is not int or m < 1:
        raise ValueError("coefficient JSON needs an object with an integer m >= 1")
    k = np.asarray(obj.get("k"))
    if k.dtype.kind not in "iuf" or k.shape != (2 * m, 2 * m + 1):
        raise ValueError(f"coefficient JSON needs a numeric k of shape ({2 * m}, {2 * m + 1})")
    return CoefficientMatrix(m, k.astype(float, copy=False))
