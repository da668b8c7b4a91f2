"""Norm-preserving cooling flow and its logistic bounds.

The flow d|phi>/dt = -(H - <H>)|phi>/2 is the continuous dynamics the
protocol emulates step by step.  Its closed-form solution is normalised
imaginary-time evolution, so the exact path is one vector exponential; the
RK4 integrator exists purely as an independent cross-check.

Series along the flow (:func:`flow_series`, the crossing-step search and the
network's second-order deviations) run on the populations of the distinct
levels, vectorised over time (:class:`LevelFlow`); :func:`flow_exact` keeps
the per-state path as an independent cross-check.

For a uniform initial state the ground-level population P1(t) is sandwiched
between two logistic curves whose rates are the spectral gap and span.  Note
the orientation: the gap-rate curve is the *lower* bound (the flow converges
at least as fast as the slowest logistic), the span-rate curve the upper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .hamiltonian import DEGENERACY_TOL, Spectrum, spectral_stats
from .quantum import PureState, _check_dims, csv_table

RK4_STEP_CAP = 0.1   # max h * span accepted by the integrator
#: entries per row block of the population matrix; bounds every temporary of
#: a series whatever its length and level count
BLOCK_ENTRIES = 1 << 16


def flow_exact(phi0: PureState, spec: Spectrum, t: float) -> PureState:
    """Closed-form flow state: e^{-Ht/2} phi0, renormalised.

    Exponents are shifted by their maximum before exponentiation so the
    amplitudes stay representable for any t of either sign.
    """
    _check_dims(phi0, spec)
    exponents = -0.5 * spec.eigenvalues * t
    weights = np.exp(exponents - exponents.max()) * phi0.amplitudes
    norm = np.linalg.norm(weights)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("flow underflowed: no representable amplitude left")
    return PureState(weights / norm)


@dataclass(frozen=True)
class LevelFlow:
    """A start state's flow on the distinct levels of its spectrum.

    The flow multiplies every amplitude by e^{-E t/2}, a positive factor that
    depends only on the amplitude's level, so the level populations

        P_l(t) = W_l e^{-E_l t} / sum_k W_k e^{-E_k t}

    (W_l the start state's population on level l) fix every observable that
    is diagonal in the eigenbasis, and every overlap between two flow states.
    The flow state itself is phi_t,i = unit_i sqrt(P_l(i)(t)), so a levels x
    levels operator maps back to the eigenbasis through U[i, l(i)] = unit_i.
    """

    levels: np.ndarray       # distinct eigenvalues (exact equality), ascending
    weights: np.ndarray      # start-state population W_l of each level
    n_ground: int            # levels within DEGENERACY_TOL of the lowest
    first_share: float       # |a_0|^2 / W_0: eigenvector 0's share of level 0
    level_of: np.ndarray     # level index l(i) of each eigenvector
    unit: np.ndarray         # a_i / sqrt(W_l(i)): the start state's unit component

    def blocks(self, times):
        """Yield (rows, P) over consecutive row blocks of the times x levels
        population matrix, each block holding at most about BLOCK_ENTRIES
        entries; rows normalised by log-sum-exp, so no time underflows."""
        times = np.asarray(times, dtype=float)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)        # -inf on empty levels
        step = max(1, BLOCK_ENTRIES // self.levels.size)
        for start in range(0, times.size, step):
            t = times[start:start + step]
            pop = log_w - t[:, None] * self.levels
            pop -= pop.max(axis=1, keepdims=True)
            np.exp(pop, out=pop)
            pop /= pop.sum(axis=1, keepdims=True)
            yield slice(start, start + t.size), pop

    def populations(self, times) -> np.ndarray:
        """The whole times x levels population matrix."""
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.levels.size))
        for rows, pop in self.blocks(times):
            out[rows] = pop
        return out

    def deviation(self, times, weights) -> np.ndarray:
        """sum_k w_k D[phi_{t_k}] on the levels, skipping zero weights:
        D[phi] = {Gamma, P} - 2<Gamma> P, Gamma = (H - <H>)^2 / 4, is one
        protocol step's second-order deviation.  Gamma is constant on each
        level, so D[phi_t] = U d U^dag, d_lk = (gamma_l + gamma_k - 2<Gamma>)
        sqrt(P_l P_k) at the populations P of time t."""
        weights = np.asarray(weights, dtype=float)
        keep = np.flatnonzero(weights)
        times, weights = np.asarray(times, dtype=float)[keep], weights[keep]
        half = np.zeros((self.levels.size,) * 2)
        for rows, pop in self.blocks(times):
            energy = (pop * self.levels).sum(axis=1, keepdims=True)
            gamma = 0.25 * (self.levels - energy) ** 2
            gamma -= (pop * gamma).sum(axis=1, keepdims=True)
            root = np.sqrt(pop)
            half += (weights[rows, None] * gamma * root).T @ root
        return half + half.T

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        """U op U^dag for a levels x levels operator: entry (i, j) is
        unit_i op[l(i), l(j)] conj(unit_j)."""
        out = self.unit[:, None] * op[np.ix_(self.level_of, self.level_of)]
        out *= self.unit.conj()
        return out


def level_flow(phi0: PureState, spec: Spectrum) -> LevelFlow:
    """Group the spectrum into distinct levels and sum phi0's populations."""
    _check_dims(phi0, spec)
    levels, level_of = np.unique(spec.eigenvalues, return_inverse=True)
    probs = np.abs(phi0.amplitudes) ** 2
    weights = np.bincount(level_of, weights=probs, minlength=levels.size)
    n_ground = int(np.count_nonzero(levels <= levels[0] + DEGENERACY_TOL))
    first_share = float(probs[0] / weights[0]) if weights[0] > 0 else 0.0
    unit = phi0.amplitudes / np.sqrt(np.where(weights > 0, weights, 1.0))[level_of]
    return LevelFlow(levels, weights, n_ground, first_share, level_of, unit)


def flow_rk4(phi0: PureState, spec: Spectrum, t: float, h: float) -> PureState:
    """Classical RK4 on the flow ODE, renormalising after every step.

    The right-hand side -(E_i - <H>) a_i / 2 scales each amplitude by a real
    factor, so the iterates are phi0's amplitudes times a real vector x, and
    the stages run on x: dx_i/dt = -(E_i - <H>) x_i / 2 with
    <H> = sum_i E_i |a_i|^2 x_i^2.  In exact arithmetic these are the RK4
    iterates of the amplitudes themselves."""
    _check_dims(phi0, spec)
    if h <= 0:
        raise ValueError("step size must be positive")
    ev = spec.eigenvalues
    span = float(ev[-1] - ev[0])
    if h * span > RK4_STEP_CAP:
        raise ValueError(f"step too large: h*span = {h * span} > {RK4_STEP_CAP}")
    probs = np.abs(phi0.amplitudes) ** 2
    weighted = ev * probs

    def rhs(x: np.ndarray) -> np.ndarray:
        return -0.5 * (ev - float(weighted @ (x * x))) * x

    x = np.ones(ev.size)
    remaining = abs(t)
    direction = 1.0 if t >= 0 else -1.0
    while remaining > 1e-15:
        step = min(h, remaining) * direction
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * step * k1)
        k3 = rhs(x + 0.5 * step * k2)
        k4 = rhs(x + step * k3)
        x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x / np.sqrt(float(probs @ (x * x)))
        remaining -= abs(step)
    return PureState(phi0.amplitudes * x)


def ground_probability(state: PureState, spec: Spectrum) -> tuple[float, float]:
    """(p1, p_ground): population of the lowest level and of the whole
    ground eigenspace (they differ only for degenerate ground states)."""
    _check_dims(state, spec)
    probs = np.abs(state.amplitudes) ** 2
    ev = spec.eigenvalues
    ground_mask = ev <= ev[0] + DEGENERACY_TOL
    return float(probs[0]), float(probs[ground_mask].sum())


def logistic_curve(dim: int, rate: float, t, ground_degeneracy: int = 1):
    """1 / ((dim/J - 1) e^{-rate t} + 1): logistic growth from J/dim toward 1.

    J = 1 gives the standard curve starting at 1/dim."""
    ratio = dim / ground_degeneracy - 1.0
    return 1.0 / (ratio * np.exp(-rate * np.asarray(t, dtype=float)) + 1.0)


def logistic_bounds(dim: int, gap: float, span: float, t,
                    ground_degeneracy: int = 1) -> tuple:
    """Empirically oriented sandwich for the ground population from a uniform
    start: lower uses the gap rate, upper the span rate, both starting at
    J/dim.  With a J-fold degenerate ground space the bracketed quantity is
    the ground-subspace population (J times the lowest-level one)."""
    if not 0 < gap <= span:
        raise ValueError("need 0 < gap <= span")
    if np.any(np.asarray(t) < 0):
        raise ValueError("bounds are defined for t >= 0")
    return (logistic_curve(dim, gap, t, ground_degeneracy),
            logistic_curve(dim, span, t, ground_degeneracy))


def t_c_bounds(dim: int, gap: float, span: float, c: float,
               ground_degeneracy: int = 1) -> tuple[float, float]:
    """Window for the time at which the ground population reaches c:
    [ln(...)/span, ln(...)/gap]."""
    if not 0 < gap <= span:
        raise ValueError("need 0 < gap <= span")
    start = ground_degeneracy / dim
    if not start <= c < 1.0:
        raise ValueError(f"target must lie in [{start}, 1)")
    log_term = float(np.log((dim / ground_degeneracy - 1) / (1.0 / c - 1.0)))
    return log_term / span, log_term / gap


def find_steps_for_p1(phi0: PureState, spec: Spectrum, target: float, dt_grid: float) -> int:
    """Smallest step count m with P1(m*dt_grid) >= target (bisection on m).

    P1 is the ground-subspace population (the lowest-level one for a
    nondegenerate ground).  It is monotone along the flow for the spectra used
    here, so bisection returns the same m as a linear scan.
    """
    if dt_grid <= 0:
        raise ValueError("dt_grid must be positive")
    lf = level_flow(phi0, spec)

    def prob(m: int) -> float:
        return float(lf.populations([m * dt_grid])[0][:lf.n_ground].sum())

    if prob(0) >= target:
        return 0
    # the flow projects onto the ground eigenspace, whose population tends to 1
    if float(lf.weights[:lf.n_ground].sum()) == 0.0:
        raise ValueError("target unreachable: no ground-subspace overlap")
    if target >= 1.0:
        raise ValueError("target unreachable: asymptotic population is 1.0")
    hi = 1
    while prob(hi) < target:
        hi *= 2
        if hi > 10 ** 9:
            raise ValueError("target unreachable from this initial state")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class FlowResult:
    """Sampled flow trajectory with the logistic sandwich attached."""

    times: np.ndarray
    p1: np.ndarray
    p_ground: np.ndarray
    energy: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray

    def to_csv(self) -> str:
        return csv_table(("t", "p1", "p_ground", "energy", "lower_bound", "upper_bound"),
                         zip(*(getattr(self, f.name).tolist() for f in fields(self))))


def flow_series(phi0: PureState, spec: Spectrum, times) -> FlowResult:
    """p1, ground-subspace population and energy along the flow, with the
    logistic bounds, evaluated on the level populations one block of times
    at a time."""
    stats = spectral_stats(spec)
    lf = level_flow(phi0, spec)
    times = np.asarray(times, dtype=float)
    p1 = np.empty(times.size)
    pg = np.empty(times.size)
    en = np.empty(times.size)
    for rows, pop in lf.blocks(times):
        p1[rows] = pop[:, 0] * lf.first_share
        pg[rows] = pop[:, :lf.n_ground].sum(axis=1)
        en[rows] = (pop * lf.levels).sum(axis=1)
    lower, upper = logistic_bounds(spec.dim, stats.gap, stats.span, times,
                                   stats.ground_degeneracy)
    return FlowResult(times, p1, pg, en, np.asarray(lower), np.asarray(upper))
