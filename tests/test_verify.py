"""Verification-suite wiring: verdicts must be stable across seeds and the
report JSON must carry the measured details."""

import dataclasses

import numpy as np
import pytest

from swapcool import network, verify
from swapcool.protocol import deviation_term
from swapcool.quantum import DensityOperator


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_oracle_check_verdict_stable_across_seeds(seed):
    res = verify.check_protocol_vs_oracle(seed=seed, trials=80)
    assert res.passed
    assert res.details["max_deviation"] < 1e-12


@pytest.mark.parametrize("seed", [0, 7])
def test_conservation_verdict_stable_across_seeds(seed):
    res = verify.check_energy_conservation(seed=seed, trials=60)
    assert res.passed
    drift = res.details["network_max_pair_drift"]
    assert 0.0 <= drift <= verify.CONSERVATION_TOL
    assert res.details["network_drift_margin"] == verify.CONSERVATION_TOL - drift


@pytest.mark.parametrize("check, key", [(verify.check_protocol_vs_oracle, "max_deviation"),
                                        (verify.check_energy_conservation, "max_violation")])
def test_oracle_checks_name_their_worst_trial(monkeypatch, check, key):
    clean = check(seed=0, trials=40)
    assert clean.passed
    assert clean.details["worst_case"] is None or "/dim=" in clean.details["worst_case"]
    oracle = verify.protocol_oracle

    def shifted(phi, spec, dt):
        out = oracle(phi, spec, dt)
        return dataclasses.replace(out, e_a=out.e_a + 1e-9) if spec.dim == 5 else out

    monkeypatch.setattr(verify, "protocol_oracle", shifted)
    res = check(seed=0, trials=40)
    assert not res.passed
    assert res.details[key] == pytest.approx(1e-9, rel=1e-3)
    assert res.details["worst_case"].startswith("trial=")
    assert "/dim=5/" in res.details["worst_case"]


def test_report_shape():
    results = [verify.check_coefficient_values(), verify.check_min_m_bounds()]
    report = verify.report_to_json(results)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {"coefficient_values", "min_m_bounds"}
    assert all("details" in c for c in report["checks"])


def test_run_verify_records_each_check_seconds(monkeypatch):
    monkeypatch.setattr(verify, "CORE_CHECKS",
                        (verify.check_coefficient_values, verify.check_min_m_bounds))
    report = verify.report_to_json(verify.run_verify())
    assert [c["name"] for c in report["checks"]] == ["coefficient_values", "min_m_bounds"]
    assert all(c["seconds"] > 0 for c in report["checks"])


def test_xi_trends_known_red_leg_is_isolated():
    # the saturation leg is documented-red; the other legs must stay green
    res = verify.check_xi_trends()
    d = res.details
    assert d["alpha_monotonic"] is True
    assert d["model_a_flagging"] is True
    assert d["golden_match"] is True
    assert d["golden_rows_compared"] > 0
    assert d["dim_saturation"] is False
    assert not res.passed
    # every criterion-12 series reports its increments, flagged or not
    series = [f"{kind}/alpha={a}" for kind in "bcd" for a in (1, 2, 3, 4)]
    assert list(d["saturation_increments"]) == series
    assert all(len(inc) == len(verify.ACCEPT_DIMS) - 1
               for inc in d["saturation_increments"].values())
    flagged = [s.split(":")[0] for s in d["saturation_violations"]]
    assert set(flagged) <= set(series)


def test_xi_golden_leg_fails_with_no_pinned_row(monkeypatch):
    monkeypatch.setattr(verify, "_load_xi_baselines", lambda: {"rows": []})
    res = verify.check_xi_trends(dims=(8, 16), alphas=(1, 2))
    d = res.details
    assert d["golden_rows_compared"] == 0
    assert d["golden_match"] is False
    assert d["golden_worst_rel"] is None
    assert not res.passed


def test_schedule_profiles_name_the_mismatched_m(monkeypatch):
    clean = verify.check_schedule_profiles(m_max=8)
    assert clean.passed and clean.details["terminal_mismatch_m"] == []
    profile = verify.improved_terminal_profile

    def corrupt(m):
        tau = np.array(profile(m))
        if m == 3:
            tau[0] += 1
        return tau

    monkeypatch.setattr(verify, "improved_terminal_profile", corrupt)
    res = verify.check_schedule_profiles(m_max=8)
    assert res.details["terminal_mismatch_m"] == [3]
    assert not res.passed


def test_schedule_profiles_record_the_row_steps():
    res = verify.check_schedule_profiles(m_max=8)
    stars = [network.improved_schedule_stats(m)[0] for m in range(1, 9)]
    assert res.details["row_steps"] == sum(stars)
    assert res.details["seconds_per_row_step"] == res.details["seconds"] / sum(stars)


def test_scaling_medians_keyed_by_smallest_m():
    res = verify.check_scaling_and_growth((8, 16, 32))
    assert set(res.details["global_medians"]) == {"(8,16)", "(8,32)"}


def _assert_fails_at_second_order(res):
    assert res.passed is False
    for kind, per in res.details["per_model"].items():
        lo, hi = verify.QUADRATIC_RATIO_RANGE
        assert all(lo <= r <= hi for r in per["ratios"]), (kind, per["ratios"])


def test_transfer_check_fails_on_a_second_order_error(monkeypatch):
    exact = verify.transfer_first_order
    monkeypatch.setattr(verify, "transfer_first_order",
                        lambda phi, spec, dt: tuple(e + dt * dt for e in exact(phi, spec, dt)))
    _assert_fails_at_second_order(verify.check_transfer_convergence())


def test_expansion_check_fails_without_the_deviation_term(monkeypatch):
    expand = verify.expand_short_time

    def first_order_only(phi, spec, dt):
        dev = deviation_term(spec, phi)
        return tuple(DensityOperator(rho.matrix + dt * dt * dev)
                     for rho in expand(phi, spec, dt))

    monkeypatch.setattr(verify, "expand_short_time", first_order_only)
    _assert_fails_at_second_order(verify.check_expansion_convergence())


@pytest.mark.parametrize("m_max", [0, 3])
def test_schedule_profiles_reject_m_max_below_4(m_max):
    # the step*/m^2 ratios start at m = 4, so a smaller sweep has none to bound
    with pytest.raises(ValueError, match="m_max must be >= 4"):
        verify.check_schedule_profiles(m_max)
