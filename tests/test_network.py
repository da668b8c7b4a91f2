import dataclasses
import io
import itertools
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from swapcool import experiments, kernels
from swapcool import network as network_mod
from swapcool.cli import main as cli_main
from swapcool.hamiltonian import Spectrum, build_model
from swapcool.network import (
    TOURNAMENT_MAX_N,
    Schedule,
    build_improved_schedule,
    build_tournament_schedule,
    check_scaling_law,
    coefficients_from_json,
    coefficients_to_json,
    improved_schedule_stats,
    improved_terminal_profile,
    m_alpha,
    predict_reduced_state,
    propagate_coefficients,
    rescale_row,
    rescaled_frame,
    schedule_from_json,
    schedule_to_json,
    simulate_network_exact,
    xi_statistic,
)
from swapcool.protocol import expand_short_time, protocol_oracle
from swapcool.quantum import PureState, basis_state, uniform_state


def encoded(encode, obj) -> bytes:
    """The bytes a JSON encoder passes to its write callable."""
    buf = io.BytesIO()
    encode(obj, buf.write)
    return buf.getvalue()


def events_of(sched):
    return list(zip(sched.step.tolist(), sched.lo.tolist(), sched.hi.tolist(),
                    sched.tau_common.tolist(), sched.fresh.astype(bool).tolist()))


def test_improved_m1():
    sched = build_improved_schedule(1)
    assert sched.step_star == 1
    assert events_of(sched) == [(0, 0, 1, 0, False)]
    np.testing.assert_array_equal(sched.terminal_tau, [-1, 1])


def test_improved_m2_hand_trace():
    sched = build_improved_schedule(2)
    assert sched.step_star == 3
    assert events_of(sched) == [
        (0, 0, 1, 0, False), (0, 2, 3, 0, False),
        (1, 0, 2, -1, False), (1, 1, 3, 1, False),
        (2, 1, 2, 0, True),
    ]
    np.testing.assert_array_equal(sched.terminal_tau, [-2, -1, 1, 2])


@pytest.mark.parametrize("m", [*range(1, 42), 128])
def test_improved_terminal_profile_and_validity(m):
    sched = build_improved_schedule(m)
    np.testing.assert_array_equal(sched.terminal_tau, improved_terminal_profile(m))
    sched.validate()


def test_improved_pair_count_closed_form():
    for m in range(1, 41):
        counted = sum(lo.size for lo, _, _, _ in kernels.ImprovedSteps(m))
        assert counted == kernels.improved_pair_count(m), m
    assert build_improved_schedule(41).n_pairs == kernels.improved_pair_count(41)
    # the recorded counts of m = 128 and 256
    assert kernels.improved_pair_count(128) == 707_264
    assert kernels.improved_pair_count(256) == 5_625_216


@pytest.mark.parametrize("off, error, message", [
    (-1, RuntimeError, "failed to terminate within its 29 pairs"),
    (1, AssertionError, "filled 30 of its 31 pairs")])
def test_build_improved_schedule_checks_the_pair_count(monkeypatch, off, error, message):
    exact = kernels.improved_pair_count
    monkeypatch.setattr(kernels, "improved_pair_count", lambda m: exact(m) + off)
    with pytest.raises(error, match=message):
        build_improved_schedule(4)
    # the stream checks its own count, so the coefficient path raises alike
    with pytest.raises(error, match=message):
        propagate_coefficients(kernels.ImprovedSteps(4))


def test_improved_stats_match_full_build():
    for m in (1, 2, 7, 20):
        star, terminal = improved_schedule_stats(m)
        sched = build_improved_schedule(m)
        assert star == sched.step_star
        np.testing.assert_array_equal(terminal, sched.terminal_tau)


def bumped(arr, i):
    out = arr.copy()
    out[i] += 1
    return out


# the two messages of a stored run's shape, and the one of a kind's closed form
PAIRS = "pairs are not 0 <= lo < hi < "
STEPS = "steps are not 0 to step_star - 1 = "
KIND = "network of m = "


def first_and_last_swapped(sched):
    order = np.arange(sched.n_pairs)
    order[[0, -1]] = order[[-1, 0]]
    return {f: getattr(sched, f)[order] for f in ("step", "lo", "hi", "tau_common", "fresh")}


@pytest.mark.parametrize("build", [lambda: build_improved_schedule(4),
                                   lambda: build_tournament_schedule(3)],
                         ids=["improved", "tournament"])
@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda s: {"tau_common": bumped(s.tau_common, s.n_pairs // 2)},
                 "disagree on tau", id="tau_common"),
    pytest.param(lambda s: {"terminal_tau": bumped(s.terminal_tau, 0)},
                 "terminal tau profile mismatch", id="terminal_tau"),
    pytest.param(lambda s: {"fresh": bumped(s.fresh, -1) % 2},
                 "fresh flags wrong", id="fresh"),
    pytest.param(lambda s: {"step_star": s.step_star - 1}, STEPS, id="past_step_star"),
    pytest.param(lambda s: {"step_star": s.step_star + 1}, STEPS, id="step_star_above"),
    pytest.param(first_and_last_swapped, STEPS, id="step_order"),
    # numpy wraps a negative index, so every lo moved down by n_systems replays as before
    pytest.param(lambda s: {"lo": s.lo - s.n_systems}, PAIRS, id="negative_member"),
    pytest.param(lambda s: {"hi": s.hi + s.n_systems}, PAIRS, id="member_past_n_systems"),
    pytest.param(lambda s: {"lo": s.hi, "hi": s.lo}, PAIRS, id="lo_not_below_hi"),
    pytest.param(lambda s: {"kind": s.kind[:-2] + s.kind[-1]}, "unknown schedule kind",
                 id="kind_misspelled"),
    # the improved network of m = 3 would have 6 systems, the tournament 4
    pytest.param(lambda s: {"m": s.m - 1}, KIND, id="m_relabelled"),
    pytest.param(lambda s: {"n_systems": s.n_systems + 2,
                            "terminal_tau": np.append(s.terminal_tau, [0, 0])},
                 KIND, id="systems_added"),
    pytest.param(lambda s: {"m": 0, "n_systems": 0, "step_star": 0, "terminal_tau": s.lo[:0],
                            **{f: getattr(s, f)[:0] for f in ("step", "lo", "hi",
                                                             "tau_common", "fresh")}},
                 KIND, id="no_systems"),
])
def test_validate_rejects_mutation(build, mutate, message):
    # validate must reject each mutation with the message of the check it targets
    sched = build()
    sched.validate()
    with pytest.raises(AssertionError, match=message):
        dataclasses.replace(sched, **mutate(sched)).validate()


def test_tournament_schedules_validate():
    for n in range(1, 9):
        build_tournament_schedule(n).validate()


def test_validate_rejects_a_dropped_last_step():
    sched = build_improved_schedule(4)
    keep = sched.step < sched.step_star - 1
    kept = {f: getattr(sched, f)[keep] for f in ("step", "lo", "hi", "tau_common", "fresh")}
    # with step_star kept the steps stop short of it; lowered too, only the pair count is off
    with pytest.raises(AssertionError, match=f"{STEPS}{sched.step_star - 1} in order"):
        dataclasses.replace(sched, **kept).validate()
    with pytest.raises(AssertionError, match="pair count 29, not the improved network's 30"):
        dataclasses.replace(sched, step_star=sched.step_star - 1, **kept).validate()


@pytest.mark.parametrize("column", ["hi", "tau_common", "fresh"])
def test_validate_rejects_a_short_column(column):
    # numpy raised its own broadcast or shape ValueError before the replay
    sched = build_improved_schedule(4)
    short = dataclasses.replace(sched, **{column: getattr(sched, column)[:-1]})
    lengths = {f: sched.n_pairs for f in ("step", "lo", "hi", "tau_common", "fresh")}
    lengths[column] -= 1
    with pytest.raises(AssertionError,
                       match=re.escape(f"event columns differ in length: {lengths}")):
        short.validate()


def test_validate_rejects_shared_member_within_step():
    # system 0 appears in both pairs of step 0
    i32 = lambda *v: np.asarray(v, dtype=np.int32)
    sched = Schedule("improved", 2, 4, 1, i32(0, 0), i32(0, 0), i32(1, 2),
                     i32(0, 0), np.zeros(2, dtype=np.uint8),
                     np.array([-2, 1, 1, 0]))
    with pytest.raises(AssertionError, match="disjoint"):
        sched.validate()


def pair_repeated_at_step(sched, k):
    """The schedule with the first pair of step k fired twice in that step."""
    i = int(np.flatnonzero(sched.step == k)[0])
    return dataclasses.replace(sched, **{f: np.insert(getattr(sched, f), i, getattr(sched, f)[i])
                                         for f in ("step", "lo", "hi", "tau_common", "fresh")})


@pytest.mark.parametrize("build, k", [(lambda: build_tournament_schedule(3), 2),
                                      (lambda: build_improved_schedule(4), 3)],
                         ids=["tournament", "improved"])
def test_validate_names_the_step_of_a_shared_member(build, k):
    # both copies of the pair agree on tau, and a tournament has no pair count,
    # so on the tournament the shared members are the only fault
    sched = pair_repeated_at_step(build(), k)
    with pytest.raises(AssertionError, match=f"pairs within step {k} are not disjoint"):
        sched.validate()


@pytest.mark.parametrize("moved", [lambda step: step == step[-1], lambda step: step >= 0],
                         ids=["last_step", "every_step"])
def test_validate_rejects_steps_that_skip(moved):
    # steps 0, 1, 3 or 1, 2, 3: a block's ordinal would no longer be its step
    sched = build_tournament_schedule(3)
    stretched = dataclasses.replace(sched, step=sched.step + moved(sched.step),
                                    step_star=sched.step_star + 1)
    with pytest.raises(AssertionError, match=STEPS + "3 in order"):
        stretched.validate()


def test_zero_pair_schedule_yields_no_block():
    empty = np.zeros(0, dtype=np.int32)
    sched = Schedule("improved", 1, 2, 0, empty, empty, empty, empty,
                     np.zeros(0, dtype=np.uint8), np.zeros(2, dtype=np.int64))
    assert list(sched) == []
    kmat = propagate_coefficients(sched)
    assert kmat.k.shape == (2, 3) and not kmat.k.any()


def test_tournament_n1_equals_improved_m1():
    t1 = build_tournament_schedule(1)
    i1 = build_improved_schedule(1)
    assert events_of(t1) == events_of(i1)
    np.testing.assert_array_equal(t1.terminal_tau, i1.terminal_tau)


def test_tournament_n4_structure():
    sched = build_tournament_schedule(4)
    assert sched.n_systems == 16
    assert sched.step_star == 4
    assert sched.terminal_tau[-1] == 4       # final forward branch
    assert not sched.fresh.any()
    assert sched.n_pairs == 8 + 4 + 2 + 1
    sched.validate()


def test_coefficients_m1():
    kmat = propagate_coefficients(build_improved_schedule(1))
    np.testing.assert_array_equal(kmat.k, [[0, 1, 0], [0, 1, 0]])


def test_coefficients_m2_rows():
    kmat = propagate_coefficients(build_improved_schedule(2))
    np.testing.assert_array_equal(kmat.row(4), [0, 0, 1, 1, 0])
    np.testing.assert_array_equal(kmat.row(1), [0, 1, 1, 0, 0])
    np.testing.assert_array_equal(kmat.row(2), [0, 0, 1, 0, 0])   # fresh reset
    np.testing.assert_array_equal(kmat.row(3), [0, 0, 1, 0, 0])


@pytest.mark.parametrize("n", range(1, 9))
def test_tournament_unit_coefficients(n):
    kmat = propagate_coefficients(build_tournament_schedule(n))
    expect = np.zeros(2 * n + 1)
    expect[n:2 * n] = 1.0
    np.testing.assert_array_equal(kmat.k[-1], expect)


def test_coefficients_nonnegative_and_paired_rows_equal():
    sched = build_improved_schedule(6)
    kmat = propagate_coefficients(sched)
    assert np.all(kmat.k >= 0)
    # rows of the last-step pair are equal afterwards (they were averaged)
    last = sched.step == sched.step.max()
    lo, hi = int(sched.lo[last][0]), int(sched.hi[last][0])
    np.testing.assert_array_equal(kmat.k[lo], kmat.k[hi])


def test_coefficients_deterministic():
    a = propagate_coefficients(build_improved_schedule(12)).k
    b = propagate_coefficients(build_improved_schedule(12)).k
    np.testing.assert_array_equal(a, b)


def test_scaling_law_lambda1_zero_deviation():
    kmat = propagate_coefficients(build_improved_schedule(8))
    report = check_scaling_law(kmat, kmat)
    assert report.global_median == 0.0
    assert report.global_max == 0.0


def test_scaling_law_shape_mismatch():
    # lambda is k_large.m / k_small.m, so a pair whose m's are not multiples has none
    k8 = propagate_coefficients(build_improved_schedule(8))
    k12 = propagate_coefficients(build_improved_schedule(12))
    with pytest.raises(ValueError, match="not a multiple"):
        check_scaling_law(k8, k12)


def test_scaling_law_eight_cuts_reported():
    k8 = propagate_coefficients(build_improved_schedule(8))
    k16 = propagate_coefficients(build_improved_schedule(16))
    report = check_scaling_law(k8, k16)
    assert report.lam == 2
    assert len(report.cuts) == 8
    axes = {c["axis"] for c in report.cuts}
    assert axes == {"row", "column"}


def _entrywise_deviations(k_small, k_large, lam, rows, cols):
    """Per-entry loop over the scaling law, the reference for the array form."""
    ms, ml = k_small.m, k_large.m
    devs = []
    for j in rows:
        floor = 1e-3 * k_small.k[j - 1].max()
        for kp in cols:
            if abs(lam * kp) > ml:
                continue
            a = k_small.k[j - 1][kp + ms]
            b = k_large.k[lam * j - 1][lam * kp + ml] / lam
            if max(a, b) > floor:
                devs.append(abs(a - b) / max(abs(a), abs(b)))
    return np.asarray(devs)


@pytest.mark.parametrize("m_small,m_large", [(1, 2), (4, 12), (8, 16), (3, 9)])
def test_scaling_law_matches_entrywise_loop(m_small, m_large):
    k_small = propagate_coefficients(build_improved_schedule(m_small))
    k_large = propagate_coefficients(build_improved_schedule(m_large))
    lam = m_large // m_small
    frame = rescaled_frame(k_large, m_small)
    for j in range(1, 2 * m_small + 1):
        for kp in range(-m_small, m_small + 1):
            assert frame[j - 1, kp + m_small] == k_large.k[lam * j - 1][lam * kp + m_large] / lam
    report = check_scaling_law(k_small, k_large)
    assert report.lam == lam
    ms = m_small
    all_rows, all_cols = range(1, 2 * ms + 1), range(-ms, ms + 1)
    expect = [_entrywise_deviations(k_small, k_large, lam, [j], all_cols)
              for j in (max(1, ms // 2), ms, 3 * ms // 2, 2 * ms)]
    expect += [_entrywise_deviations(k_small, k_large, lam, all_rows, [kp])
               for kp in (-ms // 2, 0, ms // 2, ms - 1)]
    for cut, d in zip(report.cuts, expect):
        assert cut["count"] == d.size
        assert cut["median"] == (float(np.median(d)) if d.size else 0.0)
        assert cut["max"] == (float(d.max()) if d.size else 0.0)
    d_all = _entrywise_deviations(k_small, k_large, lam, all_rows, all_cols)
    assert report.n_compared == d_all.size
    assert report.global_median == float(np.median(d_all))
    assert report.global_max == float(d_all.max())


def test_rescaled_frame_rejects_a_non_multiple():
    k24 = propagate_coefficients(kernels.ImprovedSteps(24))
    with pytest.raises(ValueError, match="not a multiple"):
        rescaled_frame(k24, 16)


@pytest.mark.parametrize("m_list, compared", [([16, 24], [16]), ([4, 6, 8, 12], [4, 8, 12])])
def test_cut_files_and_reports_compare_the_multiples_of_the_smallest_m(m_list, compared):
    data = experiments.coeffs_dataset(m_list)
    assert sorted(data.matrices) == m_list
    assert [r.m_large for r in data.reports] == compared[1:]
    assert len(data.cuts) == 8
    for text in data.cuts.values():
        assert text.split("\n", 1)[0].split(",")[1:] == [f"m{m}" for m in compared]


def test_rescale_row_identity():
    base = propagate_coefficients(build_improved_schedule(16))
    row = rescale_row(base, 16)
    np.testing.assert_allclose(row, base.k[-1], atol=1e-12)


def test_rescale_row_tournament_invariance():
    # all-ones rows are exactly invariant under the rescaling
    base = propagate_coefficients(build_tournament_schedule(4))
    row = rescale_row(base, 8)
    # K^(2n)[2^n, k'] = 1 on k' in [0, n); rescaled doubles the support and halves nothing
    inner = row[8 + 1: 8 + 7]    # k' in (0, 7): strictly inside the scaled plateau
    np.testing.assert_allclose(inner, 2.0)


def test_xi_eigenstate_zero():
    spec = build_model("b", 8, 1.0)
    phi = basis_state(8, 0)
    row = np.ones(2 * 3 + 1)
    assert xi_statistic(spec, phi, 3, 0.01, row) == pytest.approx(0.0, abs=1e-15)


def test_xi_zero_row():
    spec = build_model("b", 8, 1.0)
    assert xi_statistic(spec, uniform_state(8), 3, 0.01, np.zeros(7)) == 0.0


def test_xi_matches_dense_evaluation():
    from swapcool.protocol import deviation_term
    from swapcool.flow import flow_exact

    spec = build_model("c", 8, 1.0)
    phi = uniform_state(8)
    m, dt = 3, 0.02
    row = np.arange(1.0, 2 * m + 2)
    target = flow_exact(phi, spec, m * dt)
    dense = 0.0
    for col in range(2 * m + 1):
        dev = deviation_term(spec, flow_exact(phi, spec, (col - m) * dt))
        dense += row[col] * float(np.real(
            target.amplitudes.conj() @ dev @ target.amplitudes))
    assert xi_statistic(spec, phi, m, dt, row) == pytest.approx(dt * dt * dense, abs=1e-13)


def test_xi_matches_dense_evaluation_complex_state():
    # a non-uniform complex start on the degenerate-band model, with zero
    # columns skipped and negative, zero and positive flow times
    from swapcool.protocol import deviation_term
    from swapcool.flow import flow_exact

    rng = np.random.default_rng(4)
    spec = build_model("d", 16, 1.0)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    phi = PureState(v / np.linalg.norm(v))
    m, dt = 5, 0.3
    row = rng.uniform(0.0, 3.0, size=2 * m + 1)
    row[[1, 6, 8]] = 0.0
    target = flow_exact(phi, spec, m * dt).amplitudes
    dense = 0.0
    for col in range(2 * m + 1):
        dev = deviation_term(spec, flow_exact(phi, spec, (col - m) * dt))
        dense += row[col] * float(np.real(target.conj() @ dev @ target))
    assert dense != 0.0
    assert xi_statistic(spec, phi, m, dt, row) == pytest.approx(dt * dt * dense, rel=1e-12)


def test_m_alpha_model_a():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    for alpha in (0, 1, 2, 5):
        assert m_alpha(spec, phi, 0.01, alpha) == 195


def test_m_alpha_nonincreasing_in_alpha():
    spec = build_model("b", 64, 1.0)
    phi = uniform_state(64)
    values = [m_alpha(spec, phi, 0.01, a) for a in range(5)]
    assert values == sorted(values, reverse=True)


def test_m_alpha_zero_when_target_met():
    spec = build_model("d", 32, 1.0)    # ground weight 4/32 at t=0
    phi = uniform_state(32)
    assert m_alpha(spec, phi, 0.01, 4) == 0


def test_predict_reduced_state_m1_matches_expansion():
    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    sched = build_improved_schedule(1)
    kmat = propagate_coefficients(sched)
    pred = predict_reduced_state(sched, 2, kmat, spec, phi, 0.05)
    rho_a_pred, _ = expand_short_time(phi, spec, 0.05)
    np.testing.assert_allclose(pred.matrix, rho_a_pred.matrix, atol=1e-13)


def dense_prediction(sched, j, kmat, spec, phi, dt):
    """The per-column dense reference: the flow projector at tau_j dt minus
    dt^2 times the K-weighted deviation_term matrices."""
    from swapcool.flow import flow_exact
    from swapcool.protocol import deviation_term

    row = kmat.k[j - 1]
    mat = flow_exact(phi, spec, int(sched.terminal_tau[j - 1]) * dt).projector()
    for col in np.flatnonzero(row):
        dev = deviation_term(spec, flow_exact(phi, spec, (col - kmat.m) * dt))
        mat = mat - dt * dt * row[col] * dev
    return mat


@pytest.mark.parametrize("kind,dim", [("c", 128), ("b", 256), ("d", 256)])
def test_predict_reduced_state_at_large_dim_matches_dense(kind, dim):
    rng = np.random.default_rng(dim)
    spec = build_model(kind, dim, 1.0)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    sched = build_improved_schedule(3)
    kmat = propagate_coefficients(sched)
    dt = 0.05
    for phi in (uniform_state(dim), PureState(v / np.linalg.norm(v))):
        for j in (1, 4, 6):
            pred = predict_reduced_state(sched, j, kmat, spec, phi, dt).matrix
            want = dense_prediction(sched, j, kmat, spec, phi, dt)
            np.testing.assert_allclose(pred, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind,dim,complex_start", [("a", 8, False), ("c", 64, False),
                                                    ("d", 16, True)])
def test_xi_is_the_terminal_prediction_infidelity(kind, dim, complex_start):
    # xi = dt^2 <phi_T|sum_k K[2m,k] D|phi_T>, and system 2m ends at tau = m
    from swapcool.flow import flow_exact

    spec = build_model(kind, dim, 1.0)
    phi = uniform_state(dim)
    if complex_start:
        v = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, dim))
        phi = PureState(v / np.linalg.norm(v))
    m, dt = 8, 0.04
    sched = build_improved_schedule(m)
    kmat = propagate_coefficients(sched)
    assert sched.terminal_tau[2 * m - 1] == m
    target = flow_exact(phi, spec, m * dt).amplitudes
    pred = predict_reduced_state(sched, 2 * m, kmat, spec, phi, dt).matrix
    xi = xi_statistic(spec, phi, m, dt, kmat.row(2 * m))
    assert xi != 0.0
    assert xi == pytest.approx(1.0 - float(np.real(target.conj() @ pred @ target)),
                               rel=0, abs=1e-15)


@pytest.mark.parametrize("j, k_m, message", [(0, 2, "system j must lie in"),
                                              (-1, 2, "system j must lie in"),
                                              (5, 2, "system j must lie in"),
                                              (4, 3, "K has 6 rows for 4 systems")])
def test_predict_reduced_state_rejects_bad_input(j, k_m, message):
    # j = 0 and -1 would otherwise index from the end, and a K of another m
    # would be read against this schedule's terminal taus
    kmat = propagate_coefficients(build_improved_schedule(k_m))
    with pytest.raises(ValueError, match=message):
        predict_reduced_state(build_improved_schedule(2), j, kmat, build_model("b", 8, 1.0),
                              uniform_state(8), 0.01)


def test_predict_reduced_state_dt0():
    spec = build_model("b", 4, 1.0)
    phi = uniform_state(4)
    sched = build_improved_schedule(2)
    kmat = propagate_coefficients(sched)
    pred = predict_reduced_state(sched, 4, kmat, spec, phi, 0.0)
    np.testing.assert_allclose(pred.matrix, phi.projector(), atol=1e-14)


def test_predict_reduced_state_unit_trace():
    spec = build_model("b", 8, 1.0)
    phi = uniform_state(8)
    sched = build_improved_schedule(2)
    kmat = propagate_coefficients(sched)
    for j in (1, 2, 3, 4):
        pred = predict_reduced_state(sched, j, kmat, spec, phi, 0.02)
        assert np.trace(pred.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_exact_network_m1_equals_protocol_oracle():
    spec = Spectrum(np.array([-1.0, 0.0, 1.0]))
    phi = uniform_state(3)
    sched = build_improved_schedule(1)
    reduced = simulate_network_exact(sched, spec, phi, 0.3)
    oracle = protocol_oracle(phi, spec, 0.3)
    np.testing.assert_allclose(reduced[1].matrix, oracle.rho_a.matrix, atol=1e-12)
    np.testing.assert_allclose(reduced[0].matrix, oracle.rho_b.matrix, atol=1e-12)


def test_exact_network_first_term_quadratic():
    from swapcool.flow import flow_exact

    spec = Spectrum(np.array([-1.0, 0.0]))
    phi = PureState(np.array([2.0, 1.0]) / np.sqrt(5.0))
    sched = build_improved_schedule(2)
    errs = []
    for dt in (0.02, 0.01):
        rho4 = simulate_network_exact(sched, spec, phi, dt)[3].matrix
        target = flow_exact(phi, spec, 2 * dt)
        diff = np.linalg.eigvalsh(rho4 - target.projector())
        errs.append(0.5 * np.abs(diff).sum())
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_exact_network_energy_bookkeeping_on_fresh():
    # the only energy jumps happen at fresh replacements, by E0 - tr(rho H) per member
    spec = Spectrum(np.array([-1.0, 0.0]))
    phi = PureState(np.array([2.0, 1.0]) / np.sqrt(5.0))
    sched = build_improved_schedule(2)
    reduced, trace = simulate_network_exact(sched, spec, phi, 0.05,
                                            return_energy_trace=True)
    e0 = float(np.real(np.abs(phi.amplitudes) ** 2 @ spec.eigenvalues))
    for rec in trace:
        assert rec["total_after"] == pytest.approx(rec["total_after_fresh"], abs=1e-10)
        if rec["fresh"]:
            jump = rec["total_after_fresh"] - rec["total_before"]
            expect = sum(e0 - e for e in rec["replaced_energies"])
            assert jump == pytest.approx(expect, abs=1e-10)
        else:
            assert rec["total_after_fresh"] == pytest.approx(rec["total_before"], abs=1e-12)
    assert sum(r["fresh"] for r in trace) == 1
    assert reduced[3].min_eigenvalue() > -1e-10


def test_exact_network_rejects_large_joint():
    spec = build_model("a", 8, 1.0)
    sched = build_improved_schedule(2)
    with pytest.raises(ValueError):
        simulate_network_exact(sched, spec, uniform_state(8), 0.01)


def test_exact_network_energy_assertion_names_step_and_pair(monkeypatch):
    # a unitary that does not commute with H1 + H2 moves the total energy
    import swapcool.network as network

    spec = Spectrum(np.array([-1.0, 0.0]))
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    monkeypatch.setattr(network, "protocol_unitary", lambda spec, dt: np.kron(rot, np.eye(2)))
    with pytest.raises(AssertionError,
                       match=r"step 0, pair \(0, 1\): total energy drifted by "
                             r"-?\d\.\d{3}e[-+]\d+, above energy_tol 1\.000e-10"):
        simulate_network_exact(build_improved_schedule(2), spec, basis_state(2, 0), 0.1)


def _reference_network(sched, spec, phi0, dt, first="hi"):
    """Joint-space reference built from np.kron products and explicit basis
    permutations: system f is factor f of the kron product.  The pair unitary
    is exp(+i S pi/4) (e^{-iH dt/2} (x) e^{+iH dt/2}) with its first slot on
    the pair's `first` member ("hi" is Eq. (5)'s cooled-first order)."""
    dim, n = spec.dim, sched.n_systems
    joint = dim ** n
    h = spec.eigenvalues
    digits = np.array(list(itertools.product(range(dim), repeat=n)))
    weights = dim ** np.arange(n - 1, -1, -1)

    def perm(front):
        # P |k> lists the factors `front` first, then the others in index order
        order = list(front) + [f for f in range(n) if f not in front]
        p = np.zeros((joint, joint))
        p[digits[:, order] @ weights, np.arange(joint)] = 1.0
        return p

    swap = np.zeros((dim * dim, dim * dim))
    for a, b in itertools.product(range(dim), repeat=2):
        swap[b * dim + a, a * dim + b] = 1.0
    fwd = np.exp(-0.5j * h * dt)
    u2 = (np.eye(dim * dim) + 1j * swap) / np.sqrt(2.0) @ np.diag(np.kron(fwd, fwd.conj()))
    proj = np.outer(phi0.amplitudes, phi0.amplitudes.conj())

    def energies(rho):
        out = []
        for f in range(n):
            hf = np.ones(1)
            for g in range(n):
                hf = np.kron(hf, h if g == f else np.ones(dim))
            out.append(float(np.real(np.trace(rho @ np.diag(hf)))))
        return out

    def reduced(rho, f):
        p = perm([f])
        r = (p @ rho @ p.T).reshape(dim, joint // dim, dim, joint // dim)
        return np.einsum("aibi->ab", r)

    psi = np.ones(1)
    for _ in range(n):
        psi = np.kron(psi, phi0.amplitudes)
    rho = np.outer(psi, psi.conj())
    trace = []
    for s, lo, hi, fresh in zip(sched.step, sched.lo, sched.hi, sched.fresh):
        lo, hi = int(lo), int(hi)
        p = perm([hi, lo] if first == "hi" else [lo, hi])
        rec = {"total_before": sum(energies(rho))}
        if fresh:
            r = (p @ rho @ p.T).reshape(dim * dim, joint // dim ** 2, dim * dim, -1)
            rest = np.einsum("aiaj->ij", r)
            rho = p.T @ np.kron(np.kron(proj, proj), rest) @ p
        rec["total_after_fresh"] = sum(energies(rho))
        u_full = p.T @ np.kron(u2, np.eye(joint // dim ** 2)) @ p
        rho = u_full @ rho @ u_full.conj().T
        rec["total_after"] = sum(energies(rho))
        trace.append(rec)
    return [reduced(rho, f) for f in range(n)], trace


@pytest.mark.parametrize("kind,size,dim", [("improved", 2, 2), ("improved", 1, 3),
                                           ("tournament", 2, 2)])
def test_exact_network_matches_kron_reference(kind, size, dim):
    rng = np.random.default_rng(31 * size + dim)
    spec = Spectrum(np.sort(rng.uniform(-1.0, 1.0, size=dim)))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi = PureState(v / np.linalg.norm(v))
    sched = (build_improved_schedule(size) if kind == "improved"
             else build_tournament_schedule(size))
    reduced, trace = simulate_network_exact(sched, spec, phi, 0.3, return_energy_trace=True)
    ref_reduced, ref_trace = _reference_network(sched, spec, phi, 0.3)
    for got, want in zip(reduced, ref_reduced):
        assert np.abs(got.matrix - want).max() <= 1e-13
    assert len(trace) == len(ref_trace) == sched.n_pairs
    for rec, ref in zip(trace, ref_trace):
        for key in ("total_before", "total_after_fresh", "total_after"):
            assert rec[key] == pytest.approx(ref[key], abs=1e-12)
    if kind == "improved" and size == 2:
        assert int(sched.fresh.sum()) == 1
        # the comparison above can tell the two slot orders apart
        swapped, _ = _reference_network(sched, spec, phi, 0.3, first="lo")
        assert max(np.abs(r.matrix - w).max() for r, w in zip(reduced, swapped)) > 1e-3


@pytest.mark.parametrize("m", [2, 4])
def test_exact_network_reads_the_streamed_run(m):
    # the stream fires a step's pairs by tau, the stored schedule by lo; the
    # pairs of a step are disjoint, so the two runs agree to round-off
    rng = np.random.default_rng(m)
    spec = Spectrum(np.sort(rng.uniform(-1.0, 1.0, size=2)))
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = PureState(v / np.linalg.norm(v))
    streamed, trace = simulate_network_exact(kernels.ImprovedSteps(m), spec, phi, 0.2,
                                             return_energy_trace=True)
    stored, ref_trace = simulate_network_exact(build_improved_schedule(m), spec, phi, 0.2,
                                               return_energy_trace=True)
    for got, want in zip(streamed, stored, strict=True):
        assert np.abs(got.matrix - want.matrix).max() <= 1e-13

    def by_step(records):
        steps = {}
        for rec in records:
            steps.setdefault(rec["step"], []).append(rec)
        return steps

    got_steps, want_steps = by_step(trace), by_step(ref_trace)
    assert list(got_steps) == list(want_steps) == list(range(len(want_steps)))
    reordered = False
    for step, want in want_steps.items():
        got = {rec["pair"]: rec for rec in got_steps[step]}
        assert sorted(got) == sorted(rec["pair"] for rec in want)
        reordered |= list(got) != [rec["pair"] for rec in want]
        assert got_steps[step][-1]["total_after"] == pytest.approx(want[-1]["total_after"],
                                                                   abs=1e-13)
        for rec in want:
            assert got[rec["pair"]]["fresh"] == rec["fresh"]
            if rec["fresh"]:
                np.testing.assert_allclose(got[rec["pair"]]["replaced_energies"],
                                           rec["replaced_energies"], rtol=0, atol=1e-13)
    assert reordered == (m == 4)


def _dict_per_pair_reference(sched):
    """The schedule JSON object as the writer once built it, one dict per pair."""
    return {
        "kind": sched.kind,
        "m": sched.m,
        "n_systems": sched.n_systems,
        "step_star": sched.step_star,
        "pairs": [
            {"step": int(s), "pair": [int(a), int(b)], "tau": int(t), "fresh": bool(f)}
            for s, a, b, t, f in zip(sched.step, sched.lo, sched.hi,
                                     sched.tau_common, sched.fresh)
        ],
        "terminal_tau": [int(x) for x in sched.terminal_tau],
    }


@pytest.mark.parametrize("sched", [build_improved_schedule(m) for m in (1, 2, 3, 7, 33)]
                         + [build_tournament_schedule(n) for n in range(1, 6)],
                         ids=[f"improved_m{m}" for m in (1, 2, 3, 7, 33)]
                         + [f"tournament_n{n}" for n in range(1, 6)])
def test_schedule_json_bytes_match_dict_dump(sched):
    want = json.dumps(_dict_per_pair_reference(sched)).encode()
    assert_same_bytes(encoded(schedule_to_json, sched), want)


def assert_same_bytes(got, want):
    # report the first difference; a full diff of texts this long takes minutes
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
              min(len(got), len(want)))
    window = slice(max(at - 30, 0), at + 30)
    same = got == want
    assert same, f"first difference at byte {at}: {bytes(got[window])!r} != {want[window]!r}"


@pytest.mark.parametrize("kind,size", [("improved", 7), ("improved", 33), ("tournament", 4)])
def test_schedule_json_same_bytes_at_every_block_size(kind, size, monkeypatch):
    sched = (build_improved_schedule(size) if kind == "improved"
             else build_tournament_schedule(size))
    want = json.dumps(_dict_per_pair_reference(sched)).encode()
    for block in (1, 2, 3, sched.n_pairs):
        monkeypatch.setattr(network_mod, "JSON_BLOCK_PAIRS", block)
        assert_same_bytes(encoded(schedule_to_json, sched), want)


def test_schedule_cli_files_match_dict_dump(tmp_path):
    out = str(tmp_path / "o")
    assert cli_main(["schedule", "--m", "2", "--tournament", "2", "--out", out]) == 0
    for name, sched in (("schedule_m2.json", build_improved_schedule(2)),
                        ("schedule_tournament_n2.json", build_tournament_schedule(2))):
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == (json.dumps(_dict_per_pair_reference(sched)) + "\n").encode()


def test_streamed_cli_files_match_the_stored_encoding(tmp_path):
    # the CLI never stores an improved schedule; its files must still be the
    # bytes of the stored schedule's encoding
    ms = [*range(1, 13), 64]
    out = str(tmp_path / "o")
    assert cli_main(["schedule", "--m", ",".join(map(str, ms)), "--out", out]) == 0
    for m in ms:
        with open(os.path.join(out, f"schedule_m{m}.json"), "rb") as fh:
            assert_same_bytes(fh.read(), encoded(schedule_to_json, build_improved_schedule(m))
                              + b"\n")


@pytest.mark.parametrize("n", range(1, 9))
def test_cli_tournament_file_matches_the_stored_encoding(tmp_path, n):
    out = str(tmp_path / "o")
    assert cli_main(["schedule", "--m", "1", "--tournament", str(n), "--out", out]) == 0
    with open(os.path.join(out, f"schedule_tournament_n{n}.json"), "rb") as fh:
        assert fh.read() == encoded(schedule_to_json, build_tournament_schedule(n)) + b"\n"


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_improved_run_yields_the_stored_schedule(m):
    # the walk puts the stream's pairs (fired by tau, then index) in lo order
    sched = build_improved_schedule(m)
    run = network_mod.improved_run(m)
    assert (run.step_star, run.n_systems) == (sched.step_star, sched.n_systems)
    walked = [tuple(col.tolist() for col in block) for block in run]
    stored = [tuple(col.tolist() for col in block) for block in sched]
    assert [b[:3] for b in walked] == [b[:3] for b in stored]
    assert [[bool(f) for f in b[3]] for b in walked] == [[bool(f) for f in b[3]] for b in stored]


@pytest.mark.parametrize("n", range(1, 11))
def test_tournament_run_yields_the_stored_schedule(n):
    # the stages are made as they are walked; the header is the closed form
    sched = build_tournament_schedule(n)
    run = network_mod.tournament_run(n)
    replayed = (np.bincount(sched.hi, minlength=sched.n_systems)
                - np.bincount(sched.lo, minlength=sched.n_systems))
    np.testing.assert_array_equal(run.terminal_tau, replayed)
    assert (run.kind, run.m, run.n_systems, run.step_star) == (
        "tournament", n, 2 ** n, sched.step_star)
    for _ in range(2):     # the stages can be walked again
        walked = [tuple(col.tolist() for col in block) for block in run]
        assert walked == [tuple(col.tolist() for col in block) for block in sched]


def test_checked_run_rejects_a_stream_that_stops_short():
    sched = build_improved_schedule(4)
    blocks = list(sched)
    short = network_mod.CheckedRun("improved", 4, 8, sched.step_star, sched.terminal_tau,
                                   blocks[:-1])
    with pytest.raises(AssertionError, match=f"has {sched.step_star - 1} steps, not step_star"):
        list(short)


def test_schedule_json_peak_stays_below_a_tenth_of_the_file(monkeypatch, tmp_path):
    # streamed a block at a time into the hashing file writer, the peak is one
    # block; the bytearray writer held the whole file (1.0x), the str writer 3.2x
    sched = build_improved_schedule(64)
    monkeypatch.setattr(network_mod, "JSON_BLOCK_PAIRS", 1 << 10)
    path = tmp_path / "schedule_m64.json"
    tracemalloc.start()
    try:
        with experiments.atomic_output(str(path)) as write:
            schedule_to_json(sched, write)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.1 * size, (peak, size)


def test_tournament_size_bound():
    with pytest.raises(ValueError):
        build_tournament_schedule(0)
    with pytest.raises(ValueError):
        build_tournament_schedule(TOURNAMENT_MAX_N + 1)


def test_schedule_json_round_trip():
    sched = build_improved_schedule(3)
    payload = json.loads(encoded(schedule_to_json, sched))
    assert "tau" not in payload
    back = schedule_from_json(payload)
    assert events_of(back) == events_of(sched)
    assert back.step_star == sched.step_star
    np.testing.assert_array_equal(back.terminal_tau, sched.terminal_tau)


def tampered(payload, key, value, i=0):
    payload["pairs"][i][key] = value
    return payload


@pytest.mark.parametrize("tamper, message", [
    (lambda p: tampered(p, "pair", [-2, p["pairs"][0]["pair"][1]]), PAIRS),
    (lambda p: tampered(p, "tau", 1, i=-1), "disagree on tau"),
    (lambda p: dict(p, step_star=p["step_star"] + 1), STEPS),
    (lambda p: dict(p, terminal_tau=p["terminal_tau"][::-1]), "terminal tau profile mismatch"),
    (lambda p: dict(p, kind="improvd"), "unknown schedule kind 'improvd'"),
    (lambda p: dict(p, kind="tournament"), "not the tournament network of m = 3"),
    (lambda p: dict(p, m=2), "not the improved network of m = 2"),
], ids=["negative_member", "tau", "step_star", "terminal_tau", "kind_misspelled",
        "kind_relabelled", "m_relabelled"])
def test_schedule_from_json_rejects_a_tampered_file(tamper, message):
    payload = json.loads(encoded(schedule_to_json, build_improved_schedule(3)))
    with pytest.raises(AssertionError, match=message):
        schedule_from_json(tamper(payload))


def test_scaling_cuts_lie_inside_the_matrix():
    for m in range(1, 65):
        rows, columns = network_mod.scaling_cut_positions(m)
        assert all(1 <= j <= 2 * m for j in rows), m
        assert all(-m <= kp <= m for kp in columns), m


@pytest.mark.parametrize("kind,size", [("improved", 1), ("improved", 4), ("improved", 8),
                                       ("tournament", 3)])
def test_coefficients_json_bytes_match_dict_dump(kind, size):
    sched = (build_improved_schedule(size) if kind == "improved"
             else build_tournament_schedule(size))
    kmat = propagate_coefficients(sched)
    want = json.dumps({"m": kmat.m, "k": kmat.k.tolist()}).encode()
    assert_same_bytes(encoded(coefficients_to_json, kmat), want)


def test_coefficients_json_round_trip():
    kmat = propagate_coefficients(build_improved_schedule(4))
    back = coefficients_from_json(json.loads(encoded(coefficients_to_json, kmat)))
    assert back.m == kmat.m
    np.testing.assert_array_equal(back.k, kmat.k)


@pytest.mark.parametrize("build", [lambda m: experiments.coeffs_dataset([m]),
                                   experiments.base_coefficient_matrix],
                         ids=["coeffs_dataset", "base_coefficient_matrix"])
def test_coefficient_path_never_holds_the_event_stream(build):
    # building the event arrays first peaked at 1.78x their size; streamed, 0.19-0.28x
    sched = build_improved_schedule(64)
    events = sum(a.nbytes for a in (sched.step, sched.lo, sched.hi, sched.tau_common))
    del sched
    tracemalloc.start()
    try:
        build(64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < events, (peak, events)


def test_coefficient_csv_header():
    kmat = propagate_coefficients(build_improved_schedule(1))
    lines = kmat.to_csv().strip().split("\n")
    assert lines[0] == "j,k1,k2,k3"
    assert lines[1].startswith("1,")


def test_xi_result_bundle():
    from swapcool.network import xi_result

    spec = build_model("a", 8, 1.0)
    phi = uniform_state(8)
    base = propagate_coefficients(build_improved_schedule(8))
    point = xi_result(spec, phi, 0.01, 2, base)
    assert point.dim == 8
    assert point.m_alpha == 195
    assert np.isfinite(point.xi)
    spec_d = build_model("d", 32, 1.0)
    zero = xi_result(spec_d, uniform_state(32), 0.01, 4, base)
    assert zero.m_alpha == 0 and zero.xi == 0.0


def test_improved_validity_at_scale():
    # replay-check the update rules on a production-sized schedule
    sched = build_improved_schedule(256)
    sched.validate()
    assert sched.step_star == 39287
    assert 0.4 <= sched.step_star / 256 ** 2 <= 1.0
