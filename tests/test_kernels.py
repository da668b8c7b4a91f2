"""The step-vectorised kernels against a literal pure-Python reference.

The reference pairs by the scan rule itself (ascending index, one pending
index per tau value) and accumulates one pair at a time, so event streams,
step*, terminal profiles and coefficient matrices must match it exactly.
"""

import numpy as np
import pytest

from swapcool import kernels

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
    step_star, terminal, es, el, eh, et = kernels.improved_schedule_events(m)
    assert step_star == ref_star
    np.testing.assert_array_equal(terminal, ref_terminal)
    np.testing.assert_array_equal(np.stack([es, el, eh, et], axis=1),
                                  np.asarray(ref_events).reshape(-1, 4))


@pytest.mark.parametrize("m", MS)
def test_accumulate_matches_reference(m):
    _, _, ref_events = reference_events(m)
    _, _, es, el, eh, et = kernels.improved_schedule_events(m)
    fresh = ((et == 0) & (es != 0)).astype(np.uint8)
    k = kernels.accumulate_rows(2 * m, m, es, el, eh, et, fresh)
    np.testing.assert_array_equal(k, reference_coefficients(m, ref_events))


def test_schedule_events_rejects_bad_m():
    with pytest.raises(ValueError):
        kernels.improved_schedule_events(0)


def test_lockstep_stats_match_per_m_loop():
    ms = list(range(1, 41)) + [64]
    batched = kernels.improved_schedule_stats_many(ms)
    assert len(batched) == len(ms)
    for m, (step_star, terminal) in zip(ms, batched):
        ref_star, ref_terminal, _ = reference_events(m)
        assert step_star == ref_star, m
        np.testing.assert_array_equal(terminal, ref_terminal)
        assert terminal.dtype == np.int64


def test_lockstep_stats_rejects_bad_m():
    with pytest.raises(ValueError):
        kernels.improved_schedule_stats_many([3, 0])


def test_accumulate_column_bounds_asserted():
    step = np.array([0], dtype=np.int32)
    lo = np.array([0], dtype=np.int32)
    hi = np.array([1], dtype=np.int32)
    tau = np.array([9], dtype=np.int32)     # column 9 + 1 out of range for m=1
    fresh = np.zeros(1, dtype=np.uint8)
    with pytest.raises(AssertionError):
        kernels.accumulate_rows(2, 1, step, lo, hi, tau, fresh)
