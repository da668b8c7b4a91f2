import numpy as np
import pytest

from swapcool import flow
from swapcool.hamiltonian import MODEL_KINDS, Spectrum, build_model, spectral_stats
from swapcool.flow import (
    find_steps_for_p1,
    flow_exact,
    flow_rk4,
    flow_series,
    ground_probability,
    level_flow,
    logistic_bounds,
    logistic_curve,
    t_c_bounds,
)
from swapcool.protocol import deviation_term
from swapcool.quantum import PureState, basis_state, energy_moments, uniform_state


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def test_flow_exact_t0_identity():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    np.testing.assert_allclose(flow_exact(phi, spec, 0.0).amplitudes, phi.amplitudes)


def test_flow_exact_eigenstate_fixed_point():
    spec = build_model("b", 8, 1.0)
    phi = basis_state(8, 4)
    out = flow_exact(phi, spec, 3.0)
    np.testing.assert_allclose(out.amplitudes, phi.amplitudes, atol=1e-15)


def test_flow_exact_logistic_p1():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    for t in (0.0, 0.5, np.log(7.0), 4.0):
        p1, _ = ground_probability(flow_exact(phi, spec, t), spec)
        assert p1 == pytest.approx(np.exp(t) / (np.exp(t) + 7), abs=1e-12)
    assert ground_probability(flow_exact(phi, spec, np.log(7.0)), spec)[0] == pytest.approx(0.5)


def test_flow_exact_satisfies_ode():
    # central difference of the flow matches -(H - <H>)/2 applied to the state
    rng = np.random.default_rng(0)
    spec = build_model("c", 8, 1.0)
    phi = random_state(rng, 8)
    t = 0.7
    state = flow_exact(phi, spec, t)
    e, _ = energy_moments(state, spec)
    rhs = -0.5 * (spec.eigenvalues - e) * state.amplitudes
    errs = []
    for h in (1e-3, 5e-4):
        num = (flow_exact(phi, spec, t + h).amplitudes
               - flow_exact(phi, spec, t - h).amplitudes) / (2 * h)
        errs.append(np.linalg.norm(num - rhs))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_flow_energy_nonincreasing_and_rate():
    spec = build_model("b", 16, 1.0)
    phi = uniform_state(16)
    ts = np.linspace(0, 5, 60)
    energies = [energy_moments(flow_exact(phi, spec, t), spec)[0] for t in ts]
    assert np.all(np.diff(energies) <= 1e-12)
    # dE/dt = -variance
    t = 1.3
    h = 1e-4
    state = flow_exact(phi, spec, t)
    _, var = energy_moments(state, spec)
    de = (energy_moments(flow_exact(phi, spec, t + h), spec)[0]
          - energy_moments(flow_exact(phi, spec, t - h), spec)[0]) / (2 * h)
    assert de == pytest.approx(-var, abs=1e-6)


def test_flow_p1_growth_rate_identity():
    # dP1/dt = (<H> - e_1) P1
    spec = build_model("d", 16, 1.0)
    phi = uniform_state(16)
    t, h = 0.9, 1e-4
    state = flow_exact(phi, spec, t)
    p1, _ = ground_probability(state, spec)
    e, _ = energy_moments(state, spec)
    num = (ground_probability(flow_exact(phi, spec, t + h), spec)[0]
           - ground_probability(flow_exact(phi, spec, t - h), spec)[0]) / (2 * h)
    assert num == pytest.approx((e - spec.eigenvalues[0]) * p1, abs=1e-6)


def test_flow_round_trip_inversion():
    rng = np.random.default_rng(1)
    spec = build_model("b", 8, 1.0)
    phi = random_state(rng, 8)
    back = flow_exact(flow_exact(phi, spec, 2.0), spec, -2.0)
    fidelity = abs(back.overlap(phi)) ** 2
    assert fidelity > 1 - 1e-10


def test_flow_underflow_raises():
    spec = Spectrum(np.array([0.0, 1.0]))
    phi = basis_state(2, 1)     # no weight on the surviving level
    with pytest.raises(ValueError):
        flow_exact(phi, spec, 2000.0)


def test_rk4_matches_exact():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    t = np.log(7.0)
    diff = np.linalg.norm(flow_rk4(phi, spec, t, 0.01).amplitudes
                          - flow_exact(phi, spec, t).amplitudes)
    assert diff < 1e-8


def test_rk4_t0_identity():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    np.testing.assert_array_equal(flow_rk4(phi, spec, 0.0, 0.01).amplitudes, phi.amplitudes)


def test_rk4_fourth_order():
    spec = build_model("b", 8, 1.0)
    phi = uniform_state(8)
    ref = flow_exact(phi, spec, 1.0)
    errs = [np.linalg.norm(flow_rk4(phi, spec, 1.0, h).amplitudes - ref.amplitudes)
            for h in (0.04, 0.02)]
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_rk4_rejects_large_step():
    spec = build_model("c", 512, 1.0)    # span 18
    with pytest.raises(ValueError):
        flow_rk4(uniform_state(512), spec, 1.0, 0.01)


def test_ground_probability_examples():
    assert ground_probability(uniform_state(8), build_model("a", 8, 1.0))[0] == pytest.approx(1 / 8)
    p1, pg = ground_probability(uniform_state(16), build_model("d", 16, 1.0))
    assert pg == pytest.approx(3 / 16)
    assert pg == pytest.approx(3 * p1)
    spec = build_model("b", 8, 1.0)
    assert ground_probability(basis_state(8, 0), spec) == (pytest.approx(1.0), pytest.approx(1.0))


def test_logistic_bounds_t0():
    lower, upper = logistic_bounds(8, 1.0, 2.0, 0.0)
    assert lower == pytest.approx(1 / 8)
    assert upper == pytest.approx(1 / 8)


def test_logistic_curve_reference_values():
    # the two rates at t=1, dim 8: 1/(7 e^{-2}+1) and 1/(7 e^{-1}+1)
    assert logistic_curve(8, 2.0, 1.0) == pytest.approx(1 / (7 * np.exp(-2) + 1), abs=1e-12)
    assert logistic_curve(8, 2.0, 1.0) == pytest.approx(0.5135192, abs=1e-7)
    assert logistic_curve(8, 1.0, 1.0) == pytest.approx(0.2797081, abs=1e-7)


def test_logistic_bounds_orientation_brackets_flow():
    # gap rate below, span rate above; tight when gap == span
    spec = build_model("b", 8, 1.0)
    phi = uniform_state(8)
    for t in (0.3, 1.0, 2.5):
        lower, upper = logistic_bounds(8, 1.0, 2.0, t)
        assert lower < upper
        p1, _ = ground_probability(flow_exact(phi, spec, t), spec)
        assert lower - 1e-12 <= p1 <= upper + 1e-12
    tight_lo, tight_up = logistic_bounds(8, 1.0, 1.0, 1.0)
    assert tight_lo == tight_up


def test_logistic_bounds_degenerate_ground_start():
    lower, upper = logistic_bounds(16, 1.0, 2.0, 0.0, ground_degeneracy=3)
    assert lower == pytest.approx(3 / 16)
    assert upper == pytest.approx(3 / 16)


def test_logistic_bounds_rejects_bad_rates():
    with pytest.raises(ValueError):
        logistic_bounds(8, 2.0, 1.0, 0.5)


def test_t_c_bounds_examples():
    lo, hi = t_c_bounds(8, 1.0, 1.0, 0.5)
    assert lo == pytest.approx(np.log(7.0))
    assert hi == pytest.approx(np.log(7.0))
    lo, hi = t_c_bounds(8, 1.0, 2.0, 0.5)
    assert lo == pytest.approx(0.97295507, abs=1e-7)
    assert hi == pytest.approx(1.94591015, abs=1e-7)
    assert t_c_bounds(8, 1.0, 2.0, 1 / 8) == (pytest.approx(0.0), pytest.approx(0.0))


def test_t_c_bounds_rejects_out_of_range():
    with pytest.raises(ValueError):
        t_c_bounds(8, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        t_c_bounds(8, 1.0, 2.0, 0.01)


def test_find_time_for_p1_model_a():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    assert find_steps_for_p1(phi, spec, 0.5, 0.01) == 195
    assert ground_probability(flow_exact(phi, spec, 1.94), spec)[0] < 0.5
    assert ground_probability(flow_exact(phi, spec, 1.95), spec)[0] >= 0.5


def test_find_time_target_already_met():
    spec = build_model("a", 8, 1.0)
    assert find_steps_for_p1(uniform_state(8), spec, 1 / 8, 0.01) == 0


def test_find_time_matches_linear_scan():
    spec = build_model("b", 16, 1.0)
    phi = uniform_state(16)
    for target in (0.2, 0.5, 0.9):
        m = find_steps_for_p1(phi, spec, target, 0.05)
        scan = 0
        while ground_probability(flow_exact(phi, spec, scan * 0.05), spec)[0] < target:
            scan += 1
        assert m == scan


def test_find_time_within_logistic_window():
    for kind in MODEL_KINDS:
        spec = build_model(kind, 32, 1.0)
        stats = spectral_stats(spec)
        phi = uniform_state(32)
        grid = 0.01
        for c in (0.5, 0.9):
            t = grid * find_steps_for_p1(phi, spec, c, grid)
            lo, hi = t_c_bounds(32, stats.gap, stats.span, c, stats.ground_degeneracy)
            assert lo - grid <= t <= hi + grid


def test_find_time_unreachable_raises():
    spec = build_model("d", 16, 1.0)
    with pytest.raises(ValueError):
        find_steps_for_p1(uniform_state(16), spec, 1.0, 0.01)    # the population only tends to 1
    with pytest.raises(ValueError):
        find_steps_for_p1(basis_state(16, 8), spec, 0.5, 0.01)   # no ground overlap


def test_flow_series_csv_shape():
    spec = build_model("a", 8, 1.0)
    result = flow_series(uniform_state(8), spec, np.linspace(0, 2, 5))
    csv = result.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,p1,p_ground,energy,lower_bound,upper_bound"
    assert len(lines) == 6
    assert result.p1[0] == pytest.approx(1 / 8)


def test_logistic_bounds_and_t_c_pins():
    lower, upper = logistic_bounds(8, 1.0, 2.0, [0.0, 1.0])
    assert lower[0] == pytest.approx(1 / 8)
    assert upper[0] == pytest.approx(1 / 8)
    assert lower[1] < upper[1]
    t_lo, t_hi = t_c_bounds(8, 1.0, 2.0, 0.5)
    assert t_lo == pytest.approx(0.97295507, abs=1e-7)
    assert t_hi == pytest.approx(1.94591015, abs=1e-7)
    with pytest.raises(ValueError):
        t_c_bounds(8, 1.0, 2.0, 1.5)


# --- level-population series against per-time flow_exact ----------------------

def reference_states(phi, spec, times):
    """One flow_exact per time, run on the start state's support: zero
    amplitudes stay zero along the flow, so this equals flow_exact on the
    whole spectrum wherever that is representable."""
    keep = np.flatnonzero(phi.amplitudes)
    sub_spec = Spectrum(spec.eigenvalues[keep])
    sub_phi = PureState(phi.amplitudes[keep])
    for t in times:
        amp = np.zeros(spec.dim, dtype=complex)
        amp[keep] = flow_exact(sub_phi, sub_spec, t).amplitudes
        yield PureState(amp)


def assert_series_matches(phi, spec, times):
    """Level populations at every time, and the flow_series columns at the
    times >= 0 (its logistic bounds reject negative times), against the
    per-time reference."""
    times = np.asarray(times, dtype=float)
    lf = level_flow(phi, spec)
    pops = lf.populations(times)
    ref = []
    for state in reference_states(phi, spec, times):
        probs = np.abs(state.amplitudes) ** 2
        ref.append([probs[spec.eigenvalues == e].sum() for e in lf.levels])
    np.testing.assert_allclose(pops, ref, rtol=1e-12, atol=1e-15)

    forward = times[times >= 0]
    result = flow_series(phi, spec, forward)
    want = []
    for state in reference_states(phi, spec, forward):
        want.append(ground_probability(state, spec) + energy_moments(state, spec)[:1])
    p1, pg, en = np.array(want).T
    for got, expect in ((result.p1, p1), (result.p_ground, pg), (result.energy, en)):
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


SIGNED_TIMES = np.concatenate([-np.geomspace(40.0, 1e-3, 9), [0.0], np.geomspace(1e-3, 40.0, 9)])


@pytest.mark.parametrize("kind,dim", [("a", 8), ("b", 16), ("c", 32), ("d", 64)])
def test_flow_series_matches_flow_exact_degenerate(kind, dim):
    rng = np.random.default_rng(dim)
    spec = build_model(kind, dim, 1.0)
    assert_series_matches(random_state(rng, dim), spec, SIGNED_TIMES)
    assert_series_matches(uniform_state(dim), spec, SIGNED_TIMES)


def test_flow_series_matches_flow_exact_distinct():
    rng = np.random.default_rng(5)
    for dim in (2, 7, 64):
        spec = Spectrum(np.sort(rng.uniform(-1.0, 1.0, size=dim)))
        assert np.unique(spec.eigenvalues).size == dim
        assert_series_matches(random_state(rng, dim), spec, SIGNED_TIMES)


def test_flow_series_zero_population_level():
    # the lowest level (twice degenerate) and one middle level start empty
    spec = Spectrum(np.array([-1.0, -1.0, -0.25, 0.0, 0.0, 0.5, 1.0]))
    amp = np.array([0.0, 0.0, 0.6, 0.0, 0.3j, -0.5, 0.2 + 0.1j])
    phi = PureState(amp / np.linalg.norm(amp))
    lf = level_flow(phi, spec)
    np.testing.assert_array_equal(lf.levels, [-1.0, -0.25, 0.0, 0.5, 1.0])
    assert lf.weights[0] == 0.0 and lf.first_share == 0.0
    assert_series_matches(phi, spec, SIGNED_TIMES)
    result = flow_series(phi, spec, SIGNED_TIMES[SIGNED_TIMES >= 0])
    np.testing.assert_array_equal(result.p1, 0.0)
    np.testing.assert_array_equal(result.p_ground, 0.0)


def test_flow_series_past_dense_underflow():
    # at |t| = 3000 the dense path's largest factor sits on an empty level and
    # every occupied amplitude underflows; the level populations do not
    spec = Spectrum(np.array([-1.0, 0.0, 0.0, 0.5, 2.0]))
    amp = np.array([0.0, 0.6, 0.6j, 0.5, 0.0])
    phi = PureState(amp / np.linalg.norm(amp))
    times = np.array([-3000.0, -800.0, 0.0, 800.0, 3000.0])
    for t in (-3000.0, 3000.0):
        with pytest.raises(ValueError):
            flow_exact(phi, spec, t)
    assert_series_matches(phi, spec, times)
    np.testing.assert_array_equal(level_flow(phi, spec).populations([-3000.0, 3000.0]),
                                  [[0, 0, 1, 0], [0, 1, 0, 0]])
    # with every level occupied the excited populations underflow to 0 alike
    assert_series_matches(random_state(np.random.default_rng(3), 5), spec, times)


def test_flow_series_row_blocks(monkeypatch):
    rng = np.random.default_rng(11)
    spec = Spectrum(np.sort(rng.uniform(-1.0, 1.0, size=64)))
    phi = random_state(rng, 64)
    times = np.linspace(0.0, 12.0, 2500)     # 1024 rows per block: 2 full, 1 partial
    assert times.size % (flow.BLOCK_ENTRIES // 64) != 0
    assert_series_matches(phi, spec, times)
    full = flow_series(phi, spec, times)
    monkeypatch.setattr(flow, "BLOCK_ENTRIES", 12)    # 3 levels: 4 rows per block
    assert_series_matches(random_state(rng, 16), build_model("d", 16, 1.0),
                          np.linspace(-2.0, 5.0, 11))
    monkeypatch.setattr(flow, "BLOCK_ENTRIES", 100)   # 64 levels: one row per block
    blocked = flow_series(phi, spec, times)
    np.testing.assert_array_equal(blocked.p_ground, full.p_ground)
    np.testing.assert_array_equal(blocked.energy, full.energy)


def deviation_cases():
    rng = np.random.default_rng(21)
    empty = np.array([0.0, 0.0, 0.6, 0.0, 0.3j, -0.5, 0.2 + 0.1j])   # two empty levels
    return [
        pytest.param(build_model("d", 16, 1.0), uniform_state(16), id="d16-uniform"),
        pytest.param(build_model("b", 8, 1.0), random_state(rng, 8), id="b8-complex"),
        pytest.param(build_model("c", 32, 1.0), random_state(rng, 32), id="c32-complex"),
        pytest.param(Spectrum(np.array([-1.0, -1.0, -0.25, 0.0, 0.0, 0.5, 1.0])),
                     PureState(empty / np.linalg.norm(empty)), id="empty-levels"),
        pytest.param(Spectrum(np.sort(rng.uniform(-1.0, 1.0, size=7))), random_state(rng, 7),
                     id="distinct"),
    ]


@pytest.mark.parametrize("spec,phi", deviation_cases())
def test_level_deviation_matches_dense_sum(spec, phi):
    # signed times, a zero and a negative weight
    times = np.array([-2.0, -0.5, -0.01, 0.0, 0.01, 0.3, 1.5, 4.0])
    weights = np.array([0.7, 1.0, 0.0, 2.0, -0.4, 1.3, 0.2, 0.9])
    dense = sum(w * deviation_term(spec, flow_exact(phi, spec, t))
                for t, w in zip(times, weights))
    lf = level_flow(phi, spec)
    levels = lf.deviation(times, weights)
    assert levels.shape == (lf.levels.size,) * 2
    np.testing.assert_array_equal(levels, levels.T)
    np.testing.assert_allclose(lf.to_eigenbasis(levels), dense, rtol=0, atol=1e-14)
    # an empty level has no row or column
    np.testing.assert_array_equal(levels[lf.weights == 0], 0.0)


def test_level_deviation_skips_zero_weights():
    lf = level_flow(uniform_state(8), build_model("c", 8, 1.0))
    np.testing.assert_array_equal(lf.deviation([0.5, 1e9], [1.0, 0.0]),
                                  lf.deviation([0.5], [1.0]))
    np.testing.assert_array_equal(lf.deviation([0.5], [0.0]), 0.0)
