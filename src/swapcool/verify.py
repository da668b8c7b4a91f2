"""Named verification checks: closed forms against brute-force oracles,
convergence-order measurements, bound sandwiches and schedule structure.

Each check returns a :class:`CheckResult` with the measured quantities in
``details``; :func:`run_verify` aggregates them into a report.  The same
checks back the acceptance test suite.
"""

from __future__ import annotations

import importlib.resources as resources
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import MODEL_KINDS, Spectrum, build_model, double, min_m_bound
from .quantum import PureState, energy_moments, uniform_state
from .protocol import (
    apply_protocol,
    expand_short_time,
    protocol_oracle,
    transfer_first_order,
)
from .flow import (
    find_steps_for_p1,
    flow_exact,
    flow_rk4,
    flow_series,
    ground_probability,
    t_c_bounds,
)
from .network import (
    IMPROVED_MAX_M,
    build_improved_schedule,
    build_tournament_schedule,
    improved_terminal_profile,
    predict_reduced_state,
    propagate_coefficients,
    simulate_network_exact,
)
from . import experiments, kernels

# committed regression bounds (calibrated on the first full run)
CUBIC_RATIO_RANGE = (6.0, 10.0)
RK4_RATIO_RANGE = (12.0, 20.0)
QUADRATIC_RATIO_RANGE = (3.2, 4.8)
STEP_STAR_RATIO_RANGE = (0.40, 1.00)
SCHEDULE_SWEEP_SECONDS = 60.0
PROTOCOL_ORACLE_SECONDS = 10.0
SCALING_MEDIAN_BOUND = 0.12
MAX_ENTRY_LINEAR_TOL = 0.15
ORACLE_OP_TOL = 1e-12
CONSERVATION_TOL = 1e-10
RK4_AGREE_TOL = 1e-8
SANDWICH_SLACK = 1e-12
MODEL_A_COINCIDE_TOL = 1e-9
P1_LN7_TOL = 1e-6
ACCEPT_DIMS = tuple(2 ** p for p in range(3, 10))
SANDWICH_POINTS = 400     # grid points of each logistic-sandwich trajectory


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float | None = None     # wall clock of the whole check, set by run_verify

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "seconds": self.seconds,
                "details": self.details}


def _opnorm(mat: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(mat)).max())


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def _random_case(rng: np.random.Generator):
    dim = int(rng.integers(2, 9))
    ev = np.sort(rng.uniform(-2.0, 2.0, size=dim))
    spec = Spectrum(ev, label="random")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi = PureState(v / np.linalg.norm(v))
    dt = float(rng.uniform(-1.0, 1.0))
    return spec, phi, dt


def _trial_case(trial: int, spec: Spectrum, dt: float) -> str:
    return f"trial={trial}/dim={spec.dim}/dt={dt:.6g}"


def check_protocol_vs_oracle(seed: int = 0, trials: int = 1000) -> CheckResult:
    """Closed-form reduced states against the dense two-system unitary."""
    rng = np.random.default_rng(seed)

    def cases():
        for trial in range(trials):
            spec, phi, dt = _random_case(rng)
            closed = apply_protocol(phi, spec, dt)
            dense = protocol_oracle(phi, spec, dt)
            yield (max(_opnorm(closed.rho_a.to_dense().matrix - dense.rho_a.matrix),
                       _opnorm(closed.rho_b.to_dense().matrix - dense.rho_b.matrix),
                       abs(closed.e_a - dense.e_a), abs(closed.e_b - dense.e_b)),
                   _trial_case(trial, spec, dt))
    t0 = time.perf_counter()
    worst, worst_case = _worst(cases())
    elapsed = time.perf_counter() - t0
    return CheckResult("protocol_vs_oracle",
                       worst <= ORACLE_OP_TOL and elapsed < PROTOCOL_ORACLE_SECONDS,
                       {"trials": trials, "max_deviation": worst, "worst_case": worst_case,
                        "seconds": elapsed,
                        "seconds_limit": PROTOCOL_ORACLE_SECONDS,
                        "seconds_margin": PROTOCOL_ORACLE_SECONDS - elapsed,
                        "tolerance": ORACLE_OP_TOL})


def check_energy_conservation(seed: int = 0, trials: int = 400) -> CheckResult:
    """E_a + E_b - 2 E0 at round-off on random protocol calls, plus the
    per-step total-energy assertion inside a correlated network run."""
    rng = np.random.default_rng(seed)

    def cases():
        for trial in range(trials):
            spec, phi, dt = _random_case(rng)
            case = _trial_case(trial, spec, dt)
            for path, out in (("closed", apply_protocol(phi, spec, dt)),
                              ("oracle", protocol_oracle(phi, spec, dt))):
                yield abs(out.e_a + out.e_b - 2.0 * out.e0), f"{case}/{path}"
    worst, worst_case = _worst(cases())
    sched = build_improved_schedule(2)
    spec = Spectrum(np.array([-1.0, 0.0, 1.0]), label="toy")
    # raises on a pair drift above EXACT_ORACLE_ENERGY_TOL (= CONSERVATION_TOL)
    _, trace = simulate_network_exact(sched, spec, uniform_state(3), 0.05,
                                      return_energy_trace=True)
    drift = max(abs(r["total_after"] - r["total_after_fresh"]) for r in trace)
    return CheckResult("energy_conservation", worst <= CONSERVATION_TOL,
                       {"trials": trials, "max_violation": worst, "worst_case": worst_case,
                        "network_steps_checked": sched.n_pairs,
                        "network_max_pair_drift": drift,
                        "network_drift_margin": CONSERVATION_TOL - drift,
                        "tolerance": CONSERVATION_TOL})


def _halving_ratios(errs: list[float]) -> list[float]:
    return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def _within(values, bounds) -> bool:
    lo, hi = bounds
    return all(lo <= v <= hi for v in values)


def _worst(cases) -> tuple[float, str | None]:
    """The largest of the (value, case) pairs; (0.0, None) when no value is
    positive."""
    worst, worst_case = 0.0, None
    for value, case in cases:
        if value > worst:
            worst, worst_case = value, case
    return worst, worst_case


def _cubic_per_model(name: str, error) -> CheckResult:
    """error(phi, spec, dt) per model at dim 8 under dt halving from 0.02/gap;
    every halving ratio must show a cubic remainder."""
    results = {}
    ok = True
    for kind, dim, spec, stats, _ in experiments.model_sweep(MODEL_KINDS, (8,), 1.0):
        phi = uniform_state(dim)
        errs = [error(phi, spec, factor / stats.gap) for factor in (0.02, 0.01, 0.005)]
        ratios = _halving_ratios(errs)
        results[kind] = {"errors": errs, "ratios": ratios}
        ok &= _within(ratios, CUBIC_RATIO_RANGE)
    return CheckResult(name, ok, {"per_model": results, "ratio_range": CUBIC_RATIO_RANGE})


def check_transfer_convergence() -> CheckResult:
    """Cubic remainder of the linear-response energies under dt halving."""
    def error(phi, spec, dt):
        exact = apply_protocol(phi, spec, dt)
        pred_a, pred_b = transfer_first_order(phi, spec, dt)
        return max(abs(exact.e_a - pred_a), abs(exact.e_b - pred_b))
    return _cubic_per_model("transfer_first_order_convergence", error)


def check_expansion_convergence() -> CheckResult:
    """Cubic remainder of the second-order reduced-state prediction."""
    def error(phi, spec, dt):
        exact = protocol_oracle(phi, spec, dt)
        pred_a, pred_b = expand_short_time(phi, spec, dt)
        return max(_opnorm(exact.rho_a.matrix - pred_a.matrix),
                   _opnorm(exact.rho_b.matrix - pred_b.matrix))
    return _cubic_per_model("short_time_expansion_convergence", error)


def check_printed_variant_guard() -> CheckResult:
    """Regression guard for the dt^2 term: the trace-preserving operator
    ({H^2,P} - 2 HPH form) tracks the oracle cubically, while the variant
    with a single HPH misses it at second order and leaks trace."""
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    ev = spec.eigenvalues
    p = phi.projector()
    e0, _ = energy_moments(phi, spec)
    hp = ev[:, None] * p
    ph = p * ev[None, :]
    h2p = (ev ** 2)[:, None] * p + p * (ev ** 2)[None, :]
    hph = ev[:, None] * p * ev[None, :]
    errs = {1: [], 2: []}
    trace_defect = []
    for dt in (0.02, 0.01, 0.005):
        exact = protocol_oracle(phi, spec, dt).rho_a.matrix
        first = p - 0.5 * dt * (hp + ph - 2.0 * e0 * p)
        for coef in (1, 2):
            pred = first - (dt * dt / 8.0) * (h2p - coef * hph)
            errs[coef].append(_opnorm(exact - pred))
            if coef == 1:
                trace_defect.append(abs(np.trace(pred).real - 1.0))
    derived_ratios = _halving_ratios(errs[2])
    printed_ratios = _halving_ratios(errs[1])
    ok = (_within(derived_ratios, CUBIC_RATIO_RANGE)
          and all(r < CUBIC_RATIO_RANGE[0] for r in printed_ratios)
          and all(d > 0 for d in trace_defect))
    return CheckResult("printed_variant_guard", ok,
                       {"derived_ratios": derived_ratios,
                        "printed_ratios": printed_ratios,
                        "printed_trace_defect": trace_defect})


def check_rk4_vs_exact() -> CheckResult:
    """Integrator cross-check on every model and dim up to t_c(0.99)."""
    def cases():
        for kind, dim, spec, stats, step in experiments.model_sweep(MODEL_KINDS, ACCEPT_DIMS,
                                                                     1.0):
            _, t_end = t_c_bounds(dim, stats.gap, stats.span, 0.99,
                                  stats.ground_degeneracy)
            phi = uniform_state(dim)
            diff = float(np.linalg.norm(
                flow_rk4(phi, spec, t_end, step).amplitudes
                - flow_exact(phi, spec, t_end).amplitudes))
            yield diff, f"{kind}/{dim}"
    worst, worst_case = _worst(cases())
    spec8 = build_model("a", 8, 1.0)
    p1_ln7, _ = ground_probability(flow_exact(uniform_state(8), spec8, np.log(7.0)), spec8)
    # measured convergence order of the integrator itself
    specb = build_model("b", 8, 1.0)
    phi8 = uniform_state(8)
    ref = flow_exact(phi8, specb, 1.0)
    errs = [float(np.linalg.norm(flow_rk4(phi8, specb, 1.0, h).amplitudes - ref.amplitudes))
            for h in (0.04, 0.02, 0.01)]
    ratios = _halving_ratios(errs)
    ok = (worst <= RK4_AGREE_TOL and abs(p1_ln7 - 0.5) <= P1_LN7_TOL
          and _within(ratios, RK4_RATIO_RANGE))
    return CheckResult("rk4_vs_exact", ok,
                       {"max_difference": worst, "worst_case": worst_case,
                        "tolerance": RK4_AGREE_TOL, "p1_at_ln7": p1_ln7,
                        "h_halving_ratios": ratios, "ratio_range": RK4_RATIO_RANGE})


def check_logistic_sandwich() -> CheckResult:
    """Ground-subspace population between the gap- and span-rate logistics on
    a grid to twice t_c(0.99); for the gap==span model the curves must pin
    the population to round-off."""
    violations = []
    worst_coincide = 0.0
    for kind, dim, spec, stats, _ in experiments.model_sweep(MODEL_KINDS, ACCEPT_DIMS, 1.0):
        _, t_c = t_c_bounds(dim, stats.gap, stats.span, 0.99, stats.ground_degeneracy)
        times = np.linspace(0.0, 2.0 * t_c, SANDWICH_POINTS)
        series = flow_series(uniform_state(dim), spec, times)
        pg, lower, upper = series.p_ground, series.lower_bound, series.upper_bound
        violation = np.maximum(lower - pg, pg - upper)
        i = int(np.argmax(violation))
        violations.append((float(violation[i]), f"{kind}/{dim}@t={times[i]:.3f}"))
        if kind == "a":
            worst_coincide = max(worst_coincide, float(np.abs(lower - pg).max()),
                                 float(np.abs(upper - pg).max()))
    worst_violation, worst_case = _worst(violations)
    ok = worst_violation <= SANDWICH_SLACK and worst_coincide <= MODEL_A_COINCIDE_TOL
    return CheckResult("logistic_sandwich", ok,
                       {"max_violation": worst_violation, "worst_case": worst_case,
                        "model_a_max_gap_to_p1": worst_coincide})


def check_t_c_window() -> CheckResult:
    """Measured target-crossing times inside the logistic window, one grid
    step of slack on either side."""
    def cases():
        for kind, dim, spec, stats, grid in experiments.model_sweep(MODEL_KINDS, ACCEPT_DIMS,
                                                                     1.0):
            for c in (0.5, 0.9):
                t_lo, t_hi = t_c_bounds(dim, stats.gap, stats.span, c,
                                        stats.ground_degeneracy)
                crossing = grid * find_steps_for_p1(uniform_state(dim), spec, c, grid)
                yield max(t_lo - crossing, crossing - t_hi) - grid, f"{kind}/{dim}/c={c}"
    worst_excess, worst_case = _worst(cases())
    return CheckResult("t_c_window", worst_excess <= 0.0,
                       {"max_excess_beyond_one_step": worst_excess,
                        "worst_case": worst_case})


def check_schedule_profiles(m_max: int = IMPROVED_MAX_M) -> CheckResult:
    """Terminal tau profiles for every m, the two hand-computed step counts,
    and the boundedness of step_star / m^2 (m_max >= 4: the ratios start at m = 4)."""
    if m_max < 4:
        raise ValueError(f"m_max must be >= 4, got {m_max}")
    t0 = time.perf_counter()
    stats = kernels.improved_schedule_stats_many(range(1, m_max + 1))
    mismatch = [m for m, (_, terminal) in enumerate(stats, start=1)
                if np.any(terminal != improved_terminal_profile(m))]
    elapsed = time.perf_counter() - t0
    stars = [star for star, _ in stats]
    row_steps = sum(stars)      # the steps each row took: the loop's work
    ratios = [star / m ** 2 for m, star in enumerate(stars[3:], start=4)]
    ok = (not mismatch and stars[:2] == [1, 3] and _within(ratios, STEP_STAR_RATIO_RANGE)
          and elapsed < SCHEDULE_SWEEP_SECONDS)
    return CheckResult("schedule_terminal_profiles", ok,
                       {"m_max": m_max, "step_star_1": stars[0], "step_star_2": stars[1],
                        "terminal_mismatch_m": mismatch,
                        "ratio_min": float(min(ratios)), "ratio_max": float(max(ratios)),
                        "ratio_range": STEP_STAR_RATIO_RANGE, "seconds": elapsed,
                        "seconds_limit": SCHEDULE_SWEEP_SECONDS,
                        "seconds_margin": SCHEDULE_SWEEP_SECONDS - elapsed,
                        "row_steps": row_steps, "seconds_per_row_step": elapsed / row_steps,
                        "backend": kernels.BACKEND})


def check_coefficient_values() -> CheckResult:
    """Hand-propagated coefficient rows and the tournament unit pattern."""
    ok = True
    k2 = propagate_coefficients(build_improved_schedule(1))
    ok &= np.array_equal(k2.k, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    k4 = propagate_coefficients(build_improved_schedule(2))
    ok &= np.array_equal(k4.row(4), [0.0, 0.0, 1.0, 1.0, 0.0])
    ok &= np.array_equal(k4.row(1), [0.0, 1.0, 1.0, 0.0, 0.0])
    tournament_ok = True
    for n in range(1, 9):
        kt = propagate_coefficients(build_tournament_schedule(n))
        final = kt.k[-1]
        expect = np.zeros(2 * n + 1)
        expect[n:2 * n] = 1.0    # unit weight at k' = 0..n-1
        tournament_ok &= np.array_equal(final, expect)
    ok &= tournament_ok
    return CheckResult("coefficient_values", bool(ok),
                       {"k2": k2.k.tolist(), "k4_row4": k4.row(4).tolist(),
                        "k4_row1": k4.row(1).tolist(),
                        "tournament_rows_unit": tournament_ok})


def check_scaling_and_growth(m_list=(16, 32, 64, 128)) -> CheckResult:
    """Scaling-law overlays against the smallest matrix and linear growth of
    the terminal row's peak."""
    data = experiments.coeffs_dataset(m_list)
    medians = {}
    ok = True
    for rep in data.reports:
        medians[f"({rep.m_small},{rep.m_large})"] = rep.global_median
        ok &= rep.global_median <= SCALING_MEDIAN_BOUND
    m0 = min(m_list)
    base_slope = data.matrices[m0].k[-1].max() / m0
    growth = {}
    for m in m_list:
        peak = data.matrices[m].k[-1].max()
        rel = peak / (base_slope * m)
        growth[m] = rel
        ok &= abs(rel - 1.0) <= MAX_ENTRY_LINEAR_TOL
    return CheckResult("scaling_law_and_growth", bool(ok),
                       {"global_medians": medians,
                        "median_bound": SCALING_MEDIAN_BOUND,
                        "peak_over_linear": {str(k): v for k, v in growth.items()},
                        "linear_tolerance": MAX_ENTRY_LINEAR_TOL,
                        "step_stars": {str(k): v for k, v in data.step_stars.items()}})


def _tiny_network_distances(spec: Spectrum, phi0: PureState, dts):
    sched = build_improved_schedule(2)
    kmat = propagate_coefficients(sched)
    first_errs, pred_errs = [], []
    for dt in dts:
        reduced = simulate_network_exact(sched, spec, phi0, dt)
        exact = reduced[3].matrix
        target = flow_exact(phi0, spec, 2 * dt)
        first_errs.append(_trace_distance(exact, target.projector()))
        pred = predict_reduced_state(sched, 4, kmat, spec, phi0, dt)
        pred_errs.append(_trace_distance(exact, pred.matrix))
    return first_errs, pred_errs


def check_tiny_network_order() -> CheckResult:
    """Exact 4-system run against the coefficient prediction at dim 2.

    The first-term trace distance must shrink quadratically under dt halving;
    the residual order after subtracting the predicted dt^2 term is recorded,
    not asserted.  The initial state is deliberately off the spectrum
    midpoint: the uniform two-level state has a vanishing deviation operator
    (its energy sits exactly mid-gap), which empties the dt^2 signal; that
    degenerate variant is measured and reported alongside.
    """
    dts = (0.02, 0.01, 0.005)
    spec = Spectrum(np.array([-1.0, 0.0]), label="toy2")
    skew = PureState(np.array([2.0, 1.0]) / np.sqrt(5.0))
    first_errs, pred_errs = _tiny_network_distances(spec, skew, dts)
    first_ratios = _halving_ratios(first_errs)
    resid_orders = [float(np.log2(r)) for r in _halving_ratios(pred_errs)]
    uni_first, uni_pred = _tiny_network_distances(spec, uniform_state(2), dts)
    uni_ratios = _halving_ratios(uni_first)
    ok = _within(first_ratios, QUADRATIC_RATIO_RANGE)
    return CheckResult("tiny_network_order", ok,
                       {"dts": list(dts),
                        "first_term_errors": first_errs,
                        "first_term_ratios": first_ratios,
                        "ratio_range": QUADRATIC_RATIO_RANGE,
                        "residual_errors": pred_errs,
                        "residual_measured_orders": resid_orders,
                        "uniform_state_first_ratios": uni_ratios,
                        "uniform_state_note":
                            "deviation operator vanishes at the uniform "
                            "two-level state; first-term error is dt^3 there"})


def _load_xi_baselines():
    try:
        payload = resources.files("swapcool").joinpath("data/xi_baselines.json").read_text()
    except FileNotFoundError:
        return None
    return json.loads(payload)


def check_xi_trends(dims=ACCEPT_DIMS, alphas=(1, 2, 3, 4)) -> CheckResult:
    """Monotonicity in alpha, dim-saturation increments, the model-(a)
    reference flagging, and the pinned golden values."""
    base = experiments.base_coefficient_matrix()
    rows = experiments.xi_sweep(experiments.model_sweep(MODEL_KINDS, dims, 1.0), alphas, base)
    table = {(r.model, r.dim, r.alpha): r for r in rows}

    alpha_ok, alpha_viol = True, []
    for kind in ("b", "c", "d"):
        for dim in dims:
            seq = [table[(kind, dim, a)] for a in alphas]
            if dim == 8:
                # the target is alpha-independent at dim 8 by construction
                if len({r.m_alpha for r in seq}) != 1 or len({r.xi for r in seq}) != 1:
                    alpha_ok = False
                    alpha_viol.append(f"{kind}/8: not alpha-independent")
                continue
            for r0, r1 in zip(seq, seq[1:]):
                if r0.m_alpha == 0 and r1.m_alpha == 0:
                    if r1.xi != 0.0 or r0.xi != 0.0:
                        alpha_ok = False
                        alpha_viol.append(f"{kind}/{dim}: nonzero xi at m_alpha=0")
                elif not abs(r1.xi) < abs(r0.xi):
                    alpha_ok = False
                    alpha_viol.append(
                        f"{kind}/{dim}: |xi| {abs(r0.xi):.3e} -> {abs(r1.xi):.3e} "
                        f"(alpha {r0.alpha} -> {r1.alpha})")

    saturation_ok, saturation_viol, increments = True, [], {}
    for kind in ("b", "c", "d"):
        for a in alphas:
            vals = [abs(table[(kind, d, a)].xi) for d in dims]
            inc = np.diff(vals)
            increments[f"{kind}/alpha={a}"] = inc.tolist()
            bad = np.nonzero(np.diff(inc) > 0)[0]
            if bad.size:
                saturation_ok = False
                saturation_viol.append(
                    f"{kind}/alpha={a}: increments {np.array2string(inc, precision=3)}")

    flag_ok = True
    violated_seen = False
    for dim in dims:
        for a in alphas:
            r = table[("a", dim, a)]
            flag_ok &= r.reference_only and abs(r.m_bound - dim / 2) < 1e-12
            flag_ok &= r.constraint_violated == (r.m_alpha <= dim / 2)
            violated_seen |= r.constraint_violated
    flag_ok &= violated_seen

    # a missing file or a sweep with no pinned row fails the golden leg
    baselines = _load_xi_baselines() or {"rows": []}
    golden_ok, golden_worst, compared = True, None, 0
    for entry in baselines["rows"]:
        key = (entry["model"], entry["dim"], entry["alpha"])
        if key not in table:
            continue
        compared += 1
        r = table[key]
        if r.m_alpha != entry["m_alpha"]:
            golden_ok = False
        rel = abs(r.xi - entry["xi"]) / max(abs(entry["xi"]), 1e-30)
        if golden_worst is None or rel > golden_worst:
            golden_worst = rel
        if rel > 1e-9 and abs(r.xi - entry["xi"]) > 1e-12:
            golden_ok = False
    golden_ok &= compared > 0

    return CheckResult("xi_trends", bool(alpha_ok and saturation_ok and flag_ok and golden_ok),
                       {"alpha_monotonic": alpha_ok,
                        "alpha_violations": alpha_viol,
                        "dim_saturation": saturation_ok,
                        "saturation_violations": saturation_viol,
                        "saturation_increments": increments,
                        "model_a_flagging": bool(flag_ok),
                        "golden_match": golden_ok,
                        "golden_worst_rel": golden_worst,
                        "golden_rows_compared": compared})


def check_min_m_bounds() -> CheckResult:
    """The total-energy bound: dim/2 for the single-well model with a uniform
    start, vacuous (exactly 1) for symmetric spectra and every doubling."""
    ok = True
    details = {}
    for dim in ACCEPT_DIMS:
        spec = build_model("a", dim, 1.0)
        e0, _ = energy_moments(uniform_state(dim), spec)
        bound = min_m_bound(spec, e0)
        details[f"a/{dim}"] = bound
        ok &= abs(bound - dim / 2) < 1e-12
    for kind in ("b", "c", "d"):
        spec = build_model(kind, 16, 1.0)
        ok &= abs(min_m_bound(spec, 0.0) - 1.0) < 1e-12
    for kind in MODEL_KINDS:
        spec = double(build_model(kind, 8, 1.0))
        ok &= abs(min_m_bound(spec, 0.0) - 1.0) < 1e-12
    return CheckResult("min_m_bounds", bool(ok), details)


def check_determinism() -> CheckResult:
    """Byte-identical dataset emissions for identical configs."""
    def emit():
        (_, _, spec, _, step), = experiments.model_sweep(["b"], [16], 1.0)
        flow = experiments.flow_csv(spec, step)
        data = experiments.coeffs_dataset((4, 8))
        coeff = data.matrices[8].to_csv() + data.step_star_csv()
        base = experiments.base_coefficient_matrix(16)
        xi = experiments.xi_rows_to_csv(
            experiments.xi_sweep(experiments.model_sweep(["b"], [8, 16], 1.0), [1, 2], base))
        return flow + coeff + xi + "".join(sorted(data.cuts.values()))

    first, second = emit(), emit()
    return CheckResult("determinism", first == second,
                       {"bytes": len(first), "identical": first == second})


CORE_CHECKS = (
    check_protocol_vs_oracle,
    check_energy_conservation,
    check_transfer_convergence,
    check_expansion_convergence,
    check_printed_variant_guard,
    check_rk4_vs_exact,
    check_logistic_sandwich,
    check_t_c_window,
    check_schedule_profiles,
    check_coefficient_values,
    check_tiny_network_order,
)

FULL_CHECKS = CORE_CHECKS + (
    check_scaling_and_growth,
    check_xi_trends,
    check_min_m_bounds,
    check_determinism,
)


def run_verify(seed: int = 0, full: bool = False) -> list[CheckResult]:
    """Run the core (or full) checks, recording each one's wall seconds."""
    seeded = (check_protocol_vs_oracle, check_energy_conservation)
    results = []
    for fn in (FULL_CHECKS if full else CORE_CHECKS):
        t0 = time.perf_counter()
        result = fn(seed=seed) if fn in seeded else fn()
        result.seconds = time.perf_counter() - t0
        results.append(result)
    return results


def report_to_json(results: list[CheckResult]) -> dict:
    return {"passed": all(r.passed for r in results),
            "checks": [r.to_json() for r in results]}
