"""The step-vectorised kernels against a literal pure-Python reference.

The reference pairs by the scan rule itself (ascending index, one pending
index per tau value) and accumulates one pair at a time, so event streams,
step*, terminal profiles and coefficient matrices must match it exactly,
both materialised as event arrays and streamed step by step.
"""

import numpy as np
import pytest

from swapcool import kernels, network

MS = [1, 2, 3, 4, 5, 8, 13, 16, 27, 32]


def reference_events(m):
    """(step_star, terminal_tau, events) with events (step, lo, hi, tau) in
    (step, lo) order."""
    n = 2 * m
    tau = [0] * n
    events = []
    step = 0
    while True:
        pending = {}
        paired = False
        for j in range(n):
            t = tau[j]
            lo = pending.pop(t, None)
            if lo is None:
                pending[t] = j
            else:
                events.append((step, lo, j, t))
                tau[lo] -= 1
                tau[j] += 1
                paired = True
        if not paired:
            return step, tau, sorted(events)
        step += 1


def reference_coefficients(m, events):
    k = np.zeros((2 * m, 2 * m + 1))
    for step, lo, hi, t in events:
        if t == 0 and step != 0:
            k[lo] = 0.0
            k[hi] = 0.0
        row = 0.5 * (k[lo] + k[hi])
        row[t + m] += 1.0
        k[lo] = row
        k[hi] = row
    return k


@pytest.mark.parametrize("m", MS)
def test_schedule_events_match_reference(m):
    ref_star, ref_terminal, ref_events = reference_events(m)
    sched = network.build_improved_schedule(m)
    assert sched.step_star == ref_star
    np.testing.assert_array_equal(sched.terminal_tau, ref_terminal)
    np.testing.assert_array_equal(
        np.stack([sched.step, sched.lo, sched.hi, sched.tau_common], axis=1),
        np.asarray(ref_events).reshape(-1, 4))


@pytest.mark.parametrize("m", MS)
def test_accumulate_matches_reference(m):
    _, _, ref_events = reference_events(m)
    k = kernels.accumulate_rows(2 * m, m, network.build_improved_schedule(m))
    np.testing.assert_array_equal(k, reference_coefficients(m, ref_events))


@pytest.mark.parametrize("m", MS)
def test_streamed_steps_match_reference(m):
    ref_star, ref_terminal, ref_events = reference_events(m)
    steps = kernels.ImprovedSteps(m)
    events = sorted((s, lo, hi, t) for s, block in enumerate(steps)
                    for lo, hi, t in zip(*(a.tolist() for a in block[:3])))
    assert events == ref_events
    assert steps.step_star == ref_star
    assert steps.n_pairs == len(ref_events)
    np.testing.assert_array_equal(steps.terminal_tau, ref_terminal)
    steps = kernels.ImprovedSteps(m)
    kmat = network.propagate_coefficients(steps)
    assert steps.step_star == ref_star
    np.testing.assert_array_equal(kmat.k, reference_coefficients(m, ref_events))


@pytest.mark.parametrize("m", list(range(1, 41)) + [64])
def test_streamed_path_matches_materialised(m):
    sched = network.build_improved_schedule(m)
    steps = kernels.ImprovedSteps(m)
    kmat = network.propagate_coefficients(steps)
    assert kmat.m == m
    assert (steps.n_systems, steps.n_pairs, steps.step_star) == (
        sched.n_systems, sched.n_pairs, sched.step_star)
    np.testing.assert_array_equal(kmat.k, network.propagate_coefficients(sched).k)
    np.testing.assert_array_equal(steps.terminal_tau, sched.terminal_tau)
    assert steps.terminal_tau.dtype == np.int64
    # both kinds of run yield the same (lo, hi, tau, fresh) steps
    for streamed, stored in zip(kernels.ImprovedSteps(m), sched, strict=True):
        order = streamed[0].argsort()
        for a, b in zip(streamed, stored, strict=True):
            np.testing.assert_array_equal(a[order], b)


def test_streamed_path_checks_terminal_profile(monkeypatch):
    closed_form = kernels.improved_terminal_profile
    monkeypatch.setattr(kernels, "improved_terminal_profile", lambda m: closed_form(m) + 1)
    with pytest.raises(AssertionError, match="terminal profile"):
        network.propagate_coefficients(kernels.ImprovedSteps(4))
    with pytest.raises(AssertionError, match="terminal profile"):
        network.build_improved_schedule(4)


def test_stepper_step_limit(monkeypatch):
    # pairs that never move their keys: the network would fire forever
    monkeypatch.setattr(kernels, "_fire", lambda keys, cb, width, pos, scratch: pos & 1)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        network.propagate_coefficients(kernels.ImprovedSteps(2))
    with pytest.raises(RuntimeError, match="failed to terminate"):
        network.build_improved_schedule(2)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        kernels.improved_schedule_stats_many([2])
    with pytest.raises(RuntimeError, match="failed to terminate"):
        network.improved_schedule_stats(2)


def test_schedule_events_rejects_bad_m():
    with pytest.raises(ValueError):
        network.build_improved_schedule(0)
    with pytest.raises(ValueError):
        network.propagate_coefficients(kernels.ImprovedSteps(0))


def test_lockstep_stats_match_per_m_loop():
    # the unsorted list with a repeat pads rows that retire out of order
    for ms in (list(range(1, 41)) + [64], [7, 3, 7, 1, 64, 2]):
        batched = kernels.improved_schedule_stats_many(ms)
        assert len(batched) == len(ms)
        for m, (step_star, terminal) in zip(ms, batched):
            ref_star, ref_terminal, _ = reference_events(m)
            assert step_star == ref_star, m
            np.testing.assert_array_equal(terminal, ref_terminal)
            assert terminal.dtype == np.int64
    assert kernels.improved_schedule_stats_many([]) == []


@pytest.mark.parametrize("m", list(range(1, 41)) + [64])
def test_one_row_stats_match_reference(m):
    # one live row ends on the count of its higher members, not on the per-row test
    step_star, terminal = network.improved_schedule_stats(m)
    ref_star, ref_terminal, _ = reference_events(m)
    assert step_star == ref_star
    np.testing.assert_array_equal(terminal, ref_terminal)
    assert terminal.dtype == np.int64


def test_one_row_step_star_sums():
    # the schedule workload's counts-only sweep and its m = 128 header
    assert sum(network.improved_schedule_stats(m)[0] for m in range(1, 97)) == 181_556
    assert network.improved_schedule_stats(128)[0] == 9857


def test_stream_yields_fresh_intp_columns():
    # each block is new arrays, so a block kept past the next step stays valid
    blocks = list(kernels.ImprovedSteps(5))
    sched = network.build_improved_schedule(5)
    for streamed, stored in zip(blocks, sched, strict=True):
        assert [col.dtype for col in streamed] == [np.intp, np.intp, np.intp, np.bool_]
        order = streamed[0].argsort()
        for a, b in zip(streamed, stored, strict=True):
            np.testing.assert_array_equal(a[order], b)


def test_lockstep_stats_rejects_bad_m():
    with pytest.raises(ValueError):
        kernels.improved_schedule_stats_many([3, 0])


def test_accumulate_column_bounds_asserted():
    lo = np.array([0], dtype=np.int32)
    hi = np.array([1], dtype=np.int32)
    fresh = np.zeros(1, dtype=np.uint8)
    for t in (9, -2):                       # columns 9 + 1 and -2 + 1 lie outside 0..2 for m=1
        tau = np.array([t], dtype=np.int32)
        with pytest.raises(AssertionError, match="column out of range"):
            kernels.accumulate_rows(2, 1, [(lo, hi, tau, fresh)])


def test_streamed_column_bounds_asserted():
    class ShiftedSteps(kernels.ImprovedSteps):
        """The real steps with every tau moved past the last column."""

        def __iter__(self):
            for lo, hi, tau, fresh in super().__iter__():
                yield lo, hi, tau + 2 * self.m, fresh

    with pytest.raises(AssertionError, match="column out of range"):
        network.propagate_coefficients(ShiftedSteps(3))
