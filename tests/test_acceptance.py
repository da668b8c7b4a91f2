"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 12's
dim-saturation leg is known-red: 11 of the 12 (model, alpha) series of
models b, c and d have |xi| increments over dims that rise somewhere; only
b/alpha=1 passes.  The increments of the binomial model (c) rise through
dim 2^9 at every alpha, b/alpha=2..4 fall and then grow again, the increments of d/alpha=1,2
change sign back and forth, and d/alpha=3,4 are flagged for going flat at
xi = 0 after their first drop (see the README and the check details).  It is
asserted faithfully rather than loosened.
"""

import hashlib
import json
import os
import subprocess
import sys

import swapcool
from swapcool import verify


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_protocol_exactness():
    res = verify.check_protocol_vs_oracle(seed=0, trials=1000)
    report(1, "protocol closed form vs dense oracle", res.passed,
           f"max dev {res.details['max_deviation']:.2e} over 1000 trials, "
           f"{res.details['seconds']:.1f}s")


def test_criterion_02_conservation():
    res = verify.check_energy_conservation(seed=0)
    report(2, "pairwise energy conservation", res.passed,
           f"max |Ea+Eb-2E0| = {res.details['max_violation']:.2e}, "
           f"network steps checked: {res.details['network_steps_checked']}")


def test_criterion_03_first_order_transfer():
    res = verify.check_transfer_convergence()
    ratios = {k: [round(r, 2) for r in v["ratios"]]
              for k, v in res.details["per_model"].items()}
    report(3, "first-order transfer cubic remainder", res.passed, f"ratios {ratios}")


def test_criterion_04_short_time_emulation():
    res = verify.check_expansion_convergence()
    ratios = {k: [round(r, 2) for r in v["ratios"]]
              for k, v in res.details["per_model"].items()}
    report(4, "second-order state prediction cubic remainder", res.passed,
           f"ratios {ratios}")


def test_criterion_05_flow_correctness():
    res = verify.check_rk4_vs_exact()
    report(5, "rk4 vs closed-form flow", res.passed,
           f"max diff {res.details['max_difference']:.2e} ({res.details['worst_case']}), "
           f"P1(ln7) = {res.details['p1_at_ln7']:.8f}")


def test_criterion_06_logistic_sandwich():
    res = verify.check_logistic_sandwich()
    report(6, "logistic sandwich brackets the flow", res.passed,
           f"max violation {res.details['max_violation']:.2e}, "
           f"model-a coincidence {res.details['model_a_max_gap_to_p1']:.2e}")


def test_criterion_07_t_c_window():
    res = verify.check_t_c_window()
    report(7, "crossing times inside the logistic window", res.passed,
           f"max excess beyond one grid step "
           f"{res.details['max_excess_beyond_one_step']:.2e}")


def test_criterion_08_schedule_correctness():
    res = verify.check_schedule_profiles()
    report(8, "terminal profiles and step* growth (m=1..256)", res.passed,
           f"step*(1)={res.details['step_star_1']}, step*(2)={res.details['step_star_2']}, "
           f"step*/m^2 in [{res.details['ratio_min']:.4f}, {res.details['ratio_max']:.4f}], "
           f"{res.details['seconds']:.1f}s for {res.details['row_steps']} row-steps")


def test_criterion_09_coefficient_propagation():
    res = verify.check_coefficient_values()
    report(9, "coefficient rows and tournament units", res.passed,
           f"K2={res.details['k2']}, K4 row4={res.details['k4_row4']}")


def test_criterion_10_scaling_law():
    res = verify.check_scaling_and_growth()
    report(10, "scaling-law overlays and linear peak growth", res.passed,
           f"medians {({k: round(v, 4) for k, v in res.details['global_medians'].items()})} "
           f"<= {res.details['median_bound']}, peak/linear "
           f"{({k: round(v, 3) for k, v in res.details['peak_over_linear'].items()})}")


def test_criterion_11_tiny_network_oracle():
    res = verify.check_tiny_network_order()
    d = res.details
    report(11, "tiny-network first-term dt^2 scaling", res.passed,
           f"ratios {[round(r, 2) for r in d['first_term_ratios']]} in {d['ratio_range']}; "
           f"residual orders {[round(o, 2) for o in d['residual_measured_orders']]} (recorded); "
           f"uniform-state degenerate variant ratios "
           f"{[round(r, 2) for r in d['uniform_state_first_ratios']]}")


def _xi_details():
    if not hasattr(_xi_details, "cache"):
        _xi_details.cache = verify.check_xi_trends()
    return _xi_details.cache


def test_criterion_12_xi_alpha_monotonicity_and_flags():
    res = _xi_details()
    d = res.details
    ok = d["alpha_monotonic"] and d["model_a_flagging"] and d["golden_match"]
    report(12, "xi: alpha monotonicity, model-a flagging, golden values", ok,
           f"alpha_monotonic={d['alpha_monotonic']}, flags={d['model_a_flagging']}, "
           f"golden={d['golden_match']}")


def test_criterion_12_xi_dim_saturation():
    res = _xi_details()
    d = res.details
    report(12, "xi: decreasing increments over dims (saturation)",
           d["dim_saturation"],
           "known-red: " + "; ".join(d["saturation_violations"][:3]) + " ..."
           if not d["dim_saturation"] else "")


def test_criterion_13_energy_bound():
    res = verify.check_min_m_bounds()
    report(13, "total-energy bound m > dim/2 and doubled vacuity", res.passed,
           f"model a bounds {({k: round(v, 1) for k, v in res.details.items()})}")


def test_criterion_14_determinism(tmp_path):
    # the subprocesses run the swapcool this test imported, installed or not
    src = os.path.dirname(os.path.dirname(swapcool.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        outs.append(out)
        cmds = [
            ["spectrum", "--model", "a,b,c,d", "--dims", "8..64", "--out", out],
            ["flow", "--model", "a,b,c,d", "--dims", "8..64", "--out", out],
            ["schedule", "--m", "1,2,4", "--out", out],
            ["coeffs", "--m", "16,32", "--out", out],
            ["xi", "--model", "b,c,d", "--dims", "8..32", "--alphas", "1,2",
             "--out", out, "--k-base", os.path.join(out, "K_m32.json")],
            ["protocol", "--model", "a", "--dims", "8", "--out", out],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "swapcool.cli"] + cmd,
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, (cmd, proc.stderr)
    names1 = sorted(os.listdir(outs[0]))
    assert names1 == sorted(os.listdir(outs[1]))
    diff, on_disk = [], {}
    for name in names1:
        if name == "manifest.json":
            continue
        with open(os.path.join(outs[0], name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b2 = fh.read()
        if b1 != b2:
            diff.append(name)
        on_disk[name] = hashlib.sha256(b1).hexdigest()

    def recorded(out):
        """The sha256 of every file the manifest records, over all its runs."""
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        return {f["path"]: f["sha256"] for run in man["earlier_runs"] + [man]
                for f in run["files"]}

    m1, m2 = recorded(outs[0]), recorded(outs[1])
    report(14, "byte-identical reruns", not diff and m1 == m2 == on_disk,
           f"{len(on_disk)} files compared, {len(m1)} recorded"
           + (f", differing: {diff}" if diff else ""))
