"""Schedule kernels of the improved pairing network, stepped in numpy.

Systems that share a tau form a pile, and one step pairs consecutive members
of every pile in index order (lower index to tau-1, higher to tau+1): the
scan rule "pair each index with the next unpaired index of the same tau" is
synchronous chip-firing on Z.  The pairs of one step are disjoint, so a whole
step is a few array operations, both for generating the events and for
accumulating the coefficient rows.

One chip-firing loop, ``_lockstep``, steps any number of networks side by
side.  ``ImprovedSteps`` runs one network and hands out its pairs step by
step as (lo, hi, tau, fresh) blocks, the same blocks a stored
``network.Schedule`` yields, so ``accumulate_rows`` takes either kind of
run.  ``improved_schedule_stats_many`` drains the loop for many m at once
and keeps only each step* and terminal profile.

A step of the loop is a sort, nine ufunc calls and a count, the ufuncs
writing into arrays made once per set of live rows (``_scratch``), with
constants held as 0-d arrays: a Python scalar operand adds about 0.4 us to
a call, about what the call spends on a row of 256 keys.  With one live
row the cost is call overhead, about 6.5 us a step at m = 96 (10 us when
every call allocated its result); with criterion 08's 256 rows the
run-start scan dominates, about 3.1 us per row-step either way (2 vCPU
Xeon, numpy 2.4.6).

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


def _scratch(keys, width):
    """The arrays one step on the flat ``keys`` of some live rows writes
    into, with the shifted views it reads: made once per set of live rows,
    so that a step allocates nothing."""
    tau, start, hi = (np.empty_like(keys) for _ in range(3))
    run = np.empty(keys.size, dtype=bool)
    shift = np.empty(keys.size - 1, dtype=keys.dtype)
    return (keys[1:], keys[:-1], tau, tau[1:], tau[:-1], run, run[1:], run[::width],
            start, hi, hi[1:], shift, np.ones((), dtype=keys.dtype))


def _fire(keys, cb, width, pos, scratch):
    """One step on rows of ``width`` sorted keys, flattened into ``keys``.

    Pairs consecutive members of every equal-tau run within a row, moves
    each pair's two keys apart by one tau in place, and returns the 0/1 mask
    of the higher members.  ``cb`` is the index bits as a 0-d array of the
    keys' dtype, ``pos`` holds 0..keys.size-1 and ``scratch`` is
    ``_scratch(keys, width)``: every operation writes into it.
    """
    keys_up, keys_down, tau, tau_up, tau_down, run, run_up, row_start, start, hi, hi_up, \
        shift, one = scratch
    np.right_shift(keys, cb, out=tau)
    np.not_equal(tau_up, tau_down, out=run_up)
    row_start.fill(True)
    np.multiply(pos, run, out=start)
    np.maximum.accumulate(start, out=start)     # the position where each run starts
    np.subtract(pos, start, out=hi)
    np.bitwise_and(hi, one, out=hi)
    np.left_shift(hi_up, cb, out=shift)
    keys_up += shift
    keys_down -= shift
    return hi


def _lockstep(ms, results):
    """Run the improved network for every m in the list ``ms`` in lock-step.

    Row i of a 2-D array holds the packed keys of the 2*ms[i] systems, and
    every step sorts and fires all live rows at once.  After each step that
    paired something, yields the live rows' flat keys, the 0/1 mask of the
    higher members (whose keys have already moved up one tau) and its count;
    the arrays are scratch that the next step overwrites.  A row that pairs
    nothing is retired at its own step* with ``results[i] = (step*, int64
    terminal tau)``, so a sweep costs one sort per step of the largest m.
    The step's arrays are remade only when rows retire, and the per-row
    test for pairs runs only while more than one row is live.  The tau field
    of a system is tau + 2*max(ms).
    """
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    if not ms:
        return
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
    bits = np.array(cb, dtype=dtype)
    live = np.arange(len(ms))
    step = 0
    while live.size:
        flat = keys.ravel()
        scratch = _scratch(flat, width)
        pos_live = pos[:flat.size]
        limit = 10 * min(ms[i] for i in live) ** 2 + 10
        n_paired = live.size
        while n_paired == live.size:
            if step > limit:
                raise RuntimeError("pairing schedule failed to terminate")
            keys.sort()     # each row
            hi = _fire(flat, bits, width, pos_live, scratch)
            n_hi = np.count_nonzero(hi)
            if not n_hi:
                n_paired = 0
            elif live.size > 1:         # with one live row, n_hi decides
                n_paired = np.count_nonzero(hi.reshape(-1, width).any(axis=1))
            if n_hi:
                yield flat, hi, n_hi
            step += 1
        paired = hi.reshape(-1, width).any(axis=1)
        for i in np.flatnonzero(~paired):
            row = keys[i, :2 * ms[live[i]]]
            terminal = np.empty(row.size, dtype=np.int64)
            terminal[row & mask] = (row >> cb) - width
            results[live[i]] = (step - 1, terminal)
        keys = keys[paired]
        live = live[paired]


def improved_terminal_profile(m: int) -> np.ndarray:
    """Closed-form terminal tau of the improved network (0-based systems)."""
    i = np.arange(2 * m)
    return np.where(i < m, i - m, i - m + 1).astype(np.int64)


def improved_pair_count(m: int) -> int:
    """Pair events of the improved network, m(m+1)(2m+1)/6.

    Each pair moves one member down one tau and the other up one, raising
    sum tau^2 by exactly 2, from 0 at the start to m(m+1)(2m+1)/3 on the
    terminal profile, whatever the order of the firings."""
    return m * (m + 1) * (2 * m + 1) // 6


class ImprovedSteps:
    """The improved network for 2m systems: the one-row case of the
    lock-step loop.

    Iterating runs the network once and yields, step by step, new arrays
    (lo, hi, tau, fresh) of that step's pairs in firing order (by tau, then
    index), intp but for the bool fresh, tau being the pair's common tau
    before the step and fresh marking a pair that meets at tau = 0 after
    the first step.  ``n_pairs``
    is the closed form ``improved_pair_count(m)``, and the run must fill it
    exactly: RuntimeError on overrun, AssertionError on shortfall.  Once
    drained it holds ``step_star`` and the int64 ``terminal_tau``, checked
    against the closed form.
    """

    def __init__(self, m: int):
        self.m = int(m)
        self.n_systems = 2 * self.m
        self.n_pairs = improved_pair_count(self.m)
        self.step_star = self.terminal_tau = None

    def __iter__(self):
        cb, dtype = _key_layout(self.n_systems)
        bits, mask = np.array(cb, dtype=dtype), np.array((1 << cb) - 1, dtype=dtype)
        offset, zero, one = (np.array(c, dtype=np.intp) for c in (self.n_systems + 1, 0, 1))
        results = [None]
        filled = 0
        for step, (keys, hi, n_hi) in enumerate(_lockstep([self.m], results)):
            filled += n_hi
            if filled > self.n_pairs:
                raise RuntimeError(f"pairing schedule failed to terminate within its "
                                   f"{self.n_pairs} pairs (step {step})")
            # yielded as intp: every indexing by an int32 array converts it first
            at = hi.nonzero()[0]
            upper = keys[at]        # the higher key has already moved up one tau
            lower = keys[np.subtract(at, one, out=at)]
            tau = np.right_shift(upper, bits, dtype=np.intp)
            np.subtract(tau, offset, out=tau)
            yield (np.bitwise_and(lower, mask, dtype=np.intp),
                   np.bitwise_and(upper, mask, dtype=np.intp),
                   tau, np.equal(tau, zero) if step else np.zeros(n_hi, dtype=bool))
        if filled != self.n_pairs:
            raise AssertionError(f"pair stream filled {filled} of its {self.n_pairs} pairs")
        self.step_star, self.terminal_tau = results[0]
        if np.any(self.terminal_tau != improved_terminal_profile(self.m)):
            raise AssertionError("improved terminal profile mismatch")


def accumulate_rows(n_systems, m, blocks):
    """Propagate deviation-coefficient rows through a network's pair events.

    ``blocks`` yields the (lo, hi, tau, fresh) arrays of one step at a time,
    in step order, as a ``network.Schedule`` or an ``ImprovedSteps`` does.
    Each pair resets both rows when flagged fresh, then sets both to the row
    mean plus a unit at the column of the pair's common tau.
    The pairs of one step must be disjoint (``network.CheckedRun`` checks it);
    then the whole step is one gather, mean and scatter, with the same
    floating-point operations as a loop over its pairs in any order.  A
    column no pair has fired at yet is zero in every row, so each step moves
    only the columns from the lowest to the highest tau fired so far.
    """
    ncols = 2 * m + 1
    K = np.zeros((n_systems, ncols))
    slot = np.arange(n_systems)
    first, end = ncols, 0      # the fired columns so far lie in [first, end)
    for a, b, tau, f in blocks:
        col = tau + m
        low, high = int(col.min()), int(col.max())
        if low < 0 or high >= ncols:
            raise AssertionError("coefficient column out of range")
        first, end = min(first, low), max(end, high + 1)
        fired = slice(first, end)
        row = K[a, fired]
        row += K[b, fired]
        row *= 0.5
        if f.any():
            row[f.astype(bool)] = 0.0
        row[slot[:a.size], col - first] += 1.0
        K[a, fired] = row
        K[b, fired] = row
    return K


def improved_schedule_stats_many(ms):
    """(step_star, terminal_tau) of the improved network for every m in
    ``ms``, without the event stream: the lock-step loop, drained."""
    ms = [int(m) for m in ms]
    results = [None] * len(ms)
    for _ in _lockstep(ms, results):
        pass
    return results
