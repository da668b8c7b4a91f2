"""Schedule kernels of the improved pairing network, stepped in numpy.

Systems that share a tau form a pile, and one step pairs consecutive members
of every pile in index order (lower index to tau-1, higher to tau+1): the
scan rule "pair each index with the next unpaired index of the same tau" is
synchronous chip-firing on Z.  The pairs of one step are disjoint, so a whole
step is a few array operations, both for generating the events and for
accumulating the coefficient rows.  ``ImprovedSteps`` hands out the steps
one at a time: the accumulation consumes them as they are fired, and
``improved_schedule_events`` stores them as event arrays.

Each system is one packed key ``(tau + offset) << cb | index``.  Sorting the
keys orders them by (tau, index); a pair moves its lower key down one tau and
its higher key up one, and the index rides along in the low bits.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _key_layout(width: int):
    """Index bits and dtype of packed keys for rows of ``width`` systems
    whose tau field stays below 3*width + 1."""
    cb = (width - 1).bit_length()
    dtype = np.int32 if (3 * width + 1) << cb <= np.iinfo(np.int32).max else np.int64
    return cb, dtype


def _fire(keys, cb, width, pos, new_run):
    """One step on rows of ``width`` sorted keys, flattened into ``keys``.

    Pairs consecutive members of every equal-tau run within a row, moves
    each pair's two keys apart by one tau in place, and returns the 0/1 mask
    of the higher members.  ``pos`` holds 0..keys.size-1 and ``new_run`` is
    scratch of the same length.
    """
    tau = keys >> cb
    np.not_equal(tau[1:], tau[:-1], out=new_run[1:])
    new_run[::width] = True
    hi = (pos - np.maximum.accumulate(pos * new_run)) & 1
    shift = hi[1:] << cb
    keys[1:] += shift
    keys[:-1] -= shift
    return hi


class ImprovedSteps:
    """The improved network for 2m systems, stepped by chip-firing.

    Iterating runs the network once and yields, step by step, the int arrays
    (lo, hi, tau) of that step's pairs in firing order (by tau, then index),
    tau being the pair's common tau before the step.  Once the iteration has
    ended, ``step_star`` holds the number of steps and ``terminal`` the int64
    terminal tau of every system.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.step_star = None
        self.terminal = None

    def __iter__(self):
        n = 2 * self.m
        cb, dtype = _key_layout(n)
        mask = (1 << cb) - 1
        # tau stays inside [-m, m], so the tau field stays inside [m, 3m]
        pos = np.arange(n, dtype=dtype)
        keys = (n << cb) | pos
        new_run = np.empty(n, dtype=bool)
        limit = 10 * self.m * self.m + 10
        step = 0
        while True:
            keys.sort()
            hp = np.flatnonzero(_fire(keys, cb, n, pos, new_run))
            if not hp.size:
                break
            # the higher key has already moved up one tau
            upper = keys[hp]
            yield keys[hp - 1] & mask, upper & mask, (upper >> cb) - (n + 1)
            step += 1
            if step > limit:
                raise RuntimeError("pairing schedule failed to terminate")
        terminal = np.empty(n, dtype=np.int64)
        terminal[keys & mask] = (keys >> cb) - n
        self.step_star, self.terminal = step, terminal


def improved_schedule_events(m: int):
    """Run the tau-matching pairing rules for 2m systems.

    Returns (step_star, terminal_tau, step, lo, hi, tau_common), the event
    arrays int32 in (step, lo) order.
    """
    steps = ImprovedSteps(m)
    blocks = []
    for lo, hi, tau in steps:
        # one (lo, hi, tau) block per step, pairs ordered by lo
        order = lo.argsort()
        block = np.empty((3, lo.size), dtype=np.int32)
        block[0] = lo[order]
        block[1] = hi[order]
        block[2] = tau[order]
        blocks.append(block)
    counts = [b.shape[1] for b in blocks]
    events = np.concatenate(blocks, axis=1)
    del blocks  # release the per-step blocks before the step column is built
    ev_step = np.repeat(np.arange(steps.step_star, dtype=np.int32), counts)
    return steps.step_star, steps.terminal, ev_step, events[0], events[1], events[2]


def step_blocks(step):
    """Iterator over (start, stop) of every run of equal entries in a step
    column, in order: the events of one network step when the column is
    sorted.  An empty column gives one empty block."""
    bounds = (np.flatnonzero(step[1:] != step[:-1]) + 1).tolist()
    return zip([0] + bounds, bounds + [step.size])


def accumulate_rows(n_systems, m, blocks):
    """Propagate deviation-coefficient rows through a network's pair events.

    ``blocks`` yields the (lo, hi, tau, fresh) arrays of one step at a time,
    in step order.  Each pair resets both rows when flagged fresh, then sets
    both to the row mean plus a unit at the column of the pair's common tau.
    The pairs of one step must be disjoint (``Schedule.validate`` checks it);
    then the whole step is one gather, mean and scatter, with the same
    floating-point operations as a loop over its pairs in any order.
    """
    ncols = 2 * m + 1
    K = np.zeros((n_systems, ncols))
    slot = np.arange(n_systems)
    for a, b, tau, f in blocks:
        if not a.size:
            continue
        col = tau + m
        if col.min() < 0 or col.max() >= ncols:
            raise AssertionError("coefficient column out of range")
        row = K[a]
        row += K[b]
        row *= 0.5
        if f.any():
            row[f.astype(bool)] = 0.0
        row[slot[:a.size], col] += 1.0
        K[a] = row
        K[b] = row
    return K


def improved_schedule_stats_many(ms):
    """(step_star, terminal_tau) of improved_schedule_events(m) for every m
    in ``ms``, without the event stream, all runs stepped in lock-step.

    Row i of a 2-D array holds the packed keys of the 2*ms[i] systems, and
    every step sorts and fires all rows at once.  A row is retired at its own
    step*, so the sweep costs one sort per step of the largest m instead of
    one per step of every m.
    """
    ms = [int(m) for m in ms]
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    results = [None] * len(ms)
    if not ms:
        return results
    width = 2 * max(ms)
    cb, dtype = _key_layout(width)
    mask = (1 << cb) - 1
    cols = np.arange(width)
    # A row's extreme taus only move outwards and end at -m and m, so the tau
    # field stays inside [width - m, width + m].  Padding columns of shorter
    # rows sit at distinct fields from 2*width up and therefore never pair.
    field = np.where(cols < 2 * np.asarray(ms)[:, None], width, 2 * width + cols)
    keys = ((field << cb) | cols).astype(dtype)
    pos = np.arange(keys.size, dtype=dtype)
    new_run = np.empty(keys.size, dtype=bool)
    flat, pos_live, run_live = keys.ravel(), pos, new_run
    run_rows = run_live.reshape(-1, width)
    live = np.arange(len(ms))
    limit = 10 * min(ms) ** 2 + 10
    step = 0
    while live.size:
        keys.sort(axis=1)
        _fire(flat, cb, width, pos_live, run_live)
        # a row with no pair starts a run of equal tau at every column
        done = np.logical_and.reduce(run_rows, axis=1)
        if np.count_nonzero(done):
            for i in np.flatnonzero(done):
                n = 2 * ms[live[i]]
                row = keys[i, :n]
                terminal = np.empty(n, dtype=np.int64)
                terminal[row & mask] = (row >> cb) - width
                results[live[i]] = (step, terminal)
            keys = keys[~done]
            live = live[~done]
            flat, pos_live, run_live = keys.ravel(), pos[:keys.size], new_run[:keys.size]
            run_rows = run_live.reshape(-1, width)
            if live.size:
                limit = 10 * min(ms[i] for i in live) ** 2 + 10
        step += 1
        if live.size and step > limit:
            raise RuntimeError("pairing schedule failed to terminate")
    return results
