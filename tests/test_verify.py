"""Verification-suite wiring: verdicts must be stable across seeds and the
report JSON must carry the measured details."""

import pytest

from swapcool import verify


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


def test_report_shape():
    results = [verify.check_coefficient_values(), verify.check_min_m_bounds()]
    report = verify.report_to_json(results)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {"coefficient_values", "min_m_bounds"}
    assert all("details" in c for c in report["checks"])


def test_xi_trends_known_red_leg_is_isolated():
    # the saturation leg is documented-red; the other legs must stay green
    res = verify.check_xi_trends()
    d = res.details
    assert d["alpha_monotonic"] is True
    assert d["model_a_flagging"] is True
    assert d["golden_match"] is True
    assert d["dim_saturation"] is False
    assert not res.passed
