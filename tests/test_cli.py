import argparse
import hashlib
import io
import json
import os

import numpy as np
import pytest

from swapcool import experiments
from swapcool.cli import (
    COMMANDS,
    CONFIG_KEYS,
    SETTINGS,
    Command,
    build_parser,
    main,
    parse_dims,
    parse_switch,
)
from swapcool.experiments import RunManifest, atomic_output, write_atomic
from swapcool.hamiltonian import MAX_LEVELS
from swapcool.kernels import improved_pair_count
from swapcool.network import (
    IMPROVED_MAX_M,
    SCHEDULE_MAX_PAIRS,
    TOURNAMENT_MAX_N,
    XI_MAX_M_ALPHA,
    CheckedRun,
    build_improved_schedule,
    coefficients_to_json,
    improved_schedule_stats,
    propagate_coefficients,
    schedule_to_json,
)


def read(path):
    with open(path) as fh:
        return fh.read()


def manifest_of(out_dir):
    return json.loads(read(os.path.join(out_dir, "manifest.json")))


def encoded(encode, obj) -> bytes:
    """The bytes a JSON encoder passes to its write callable."""
    buf = io.BytesIO()
    encode(obj, buf.write)
    return buf.getvalue()


def test_parse_dims():
    assert parse_dims("8..512") == [8, 16, 32, 64, 128, 256, 512]
    assert parse_dims("8,16,32") == [8, 16, 32]
    assert parse_dims("4..4") == [4]
    with pytest.raises(ValueError):
        parse_dims("16..8")


def test_spectrum_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--model", "a,b", "--dims", "4,8", "--out", out]) == 0
    assert sorted(os.listdir(out)) == sorted(
        ["spectrum_a_dim4.txt", "spectrum_a_dim4.json", "spectrum_a_dim8.txt",
         "spectrum_a_dim8.json", "spectrum_b_dim4.txt", "spectrum_b_dim4.json",
         "spectrum_b_dim8.txt", "spectrum_b_dim8.json", "manifest.json"])
    payload = json.loads(read(os.path.join(out, "spectrum_a_dim8.json")))
    assert payload["eigenvalues"] == [-1.0] + [0.0] * 7


def test_spectrum_doubled(tmp_path):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--model", "a", "--dims", "4", "--double", "--out", out]) == 0
    payload = json.loads(read(os.path.join(out, "spectrum_a_dim4_doubled.json")))
    assert len(payload["eigenvalues"]) == 16
    assert payload["label"] == "double(a)"


def test_flow_command_and_values(tmp_path):
    out = str(tmp_path / "o")
    assert main(["flow", "--model", "a", "--dims", "8", "--out", out]) == 0
    text = read(os.path.join(out, "flow_a_dim8.csv"))
    lines = text.strip().split("\n")
    assert lines[0] == "t,p1,p_ground,energy,lower_bound,upper_bound"
    # row at t = 1.95 must carry p1 within 1e-6 of the logistic crossing value
    for line in lines[1:]:
        vals = line.split(",")
        if abs(float(vals[0]) - 1.9459) < 0.0051:
            assert float(vals[1]) == pytest.approx(0.5, abs=2e-3)
            break
    else:
        raise AssertionError("no grid row near t_c")
    t, p1 = np.loadtxt(os.path.join(out, "flow_a_dim8.csv"), delimiter=",",
                       skiprows=1, usecols=(0, 1), unpack=True)
    row = np.argmin(np.abs(t - np.log(7.0)))
    assert abs(p1[row] - 0.5) < 1e-2
    assert np.all(np.diff(p1) >= -1e-12)


def test_flow_exact_gridpoint_value(tmp_path):
    # the t = 1.95 grid point itself matches the closed form to 1e-6
    out = str(tmp_path / "o")
    assert main(["flow", "--model", "a", "--dims", "8", "--out", out]) == 0
    t, p1 = np.loadtxt(os.path.join(out, "flow_a_dim8.csv"), delimiter=",",
                       skiprows=1, usecols=(0, 1), unpack=True)
    idx = np.argmin(np.abs(t - 1.95))
    expect = np.exp(t[idx]) / (np.exp(t[idx]) + 7.0)
    assert abs(p1[idx] - expect) < 1e-6


def test_flow_empty_dims_exit_2(tmp_path):
    out = str(tmp_path / "o")
    assert main(["flow", "--model", "a", "--dims", "", "--out", out]) == 2
    assert not os.path.exists(out)


def test_invalid_model_dim_combo_exit_2_no_files(tmp_path):
    out = str(tmp_path / "o")
    assert main(["flow", "--model", "c", "--dims", "12", "--out", out]) == 2
    assert not os.path.exists(out)


def test_flow_target_c_outside_t_c_window_exit_2_no_files(tmp_path):
    # dim 16 admits target_c = 0.1, but dim 8 starts at ground population 1/8
    out = str(tmp_path / "d")
    assert main(["flow", "--model", "a", "--dims", "16,8", "--target-c", "0.1",
                 "--out", out]) == 2
    assert not os.path.exists(out)


def test_flow_target_c_checked_on_doubled_spectrum(tmp_path):
    # doubled model a at dim 8 starts at ground population 7/64 (1/8 undoubled)
    out = str(tmp_path / "d")
    argv = ["flow", "--model", "a", "--dims", "8", "--double", "--out", out]
    assert main(argv + ["--target-c", "0.1"]) == 2
    assert not os.path.exists(out)
    assert main(argv + ["--target-c", "0.12"]) == 0
    assert sorted(os.listdir(out)) == ["flow_a_dim8_doubled.csv", "manifest.json"]


def test_protocol_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["protocol", "--model", "a", "--dims", "8", "--dt", "0.1",
                 "--out", out]) == 0
    payload = json.loads(read(os.path.join(out, "protocol_a_dim8.json")))
    assert payload["Ea"] == pytest.approx(-0.125 - 0.109375 * np.sin(0.1))
    assert payload["Ea"] + payload["Eb"] == pytest.approx(2 * payload["E0"], abs=1e-12)


def test_schedule_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "1,2", "--tournament", "3", "--out", out]) == 0
    sched = json.loads(read(os.path.join(out, "schedule_m2.json")))
    assert sched["step_star"] == 3
    assert sched["terminal_tau"] == [-2, -1, 1, 2]
    assert sched["pairs"][-1]["fresh"] is True
    assert "tau" not in sched
    tourn = json.loads(read(os.path.join(out, "schedule_tournament_n3.json")))
    assert tourn["n_systems"] == 8


def test_schedule_checks_every_file_it_writes(tmp_path, monkeypatch):
    # the tournament goes through the same checked walk and encoder as the improved
    walked = []
    walk = CheckedRun.__iter__

    def counting(run):
        walked.append((run.kind, run.n_systems))
        return walk(run)

    monkeypatch.setattr(CheckedRun, "__iter__", counting)
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "1,2", "--tournament", "3", "--out", out]) == 0
    assert walked == [("improved", 2), ("improved", 4), ("tournament", 8)]
    assert [f["path"] for f in manifest_of(out)["files"]] == [
        "schedule_m1.json", "schedule_m2.json", "schedule_tournament_n3.json"]


def test_schedule_stage_counts_the_pairs_and_steps_of_each_file(tmp_path):
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "3,16", "--tournament", "5", "--out", out]) == 0
    (stage,) = manifest_of(out)["stages"]
    assert stage["counts"] == {
        "schedule_m3.json": {"pair_events": improved_pair_count(3),
                             "step_star": improved_schedule_stats(3)[0]},
        "schedule_m16.json": {"pair_events": improved_pair_count(16),
                              "step_star": improved_schedule_stats(16)[0]},
        "schedule_tournament_n5.json": {"pair_events": 31, "step_star": 5}}


def first_pair_fired_twice(blocks):
    lo, hi, tau, fresh = blocks[1]
    blocks[1] = tuple(np.append(col, col[0]) for col in (lo, hi, tau, fresh))


def first_tau_bumped(blocks):
    blocks[2][2][0] += 1


def last_step_repeated(blocks):
    blocks.append(blocks[-1])


@pytest.mark.parametrize("fault, message", [
    (first_pair_fired_twice, "pairs within step 1 are not disjoint"),
    (first_tau_bumped, "disagree on tau at step 2"),
    (last_step_repeated, "more steps than step_star"),
], ids=["overlapping_pair", "wrong_tau", "extra_step"])
def test_schedule_stream_fault_leaves_no_file(tmp_path, monkeypatch, fault, message):
    from swapcool import kernels

    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "2", "--out", out]) == 0
    before = read(os.path.join(out, "manifest.json"))
    stream = kernels.ImprovedSteps

    def faulty(m):
        blocks = list(stream(m))
        fault(blocks)
        return blocks

    monkeypatch.setattr(kernels, "ImprovedSteps", faulty)
    with pytest.raises(AssertionError, match=message):
        main(["schedule", "--m", "5", "--out", out])
    assert sorted(os.listdir(out)) == ["manifest.json", "schedule_m2.json"]
    assert read(os.path.join(out, "manifest.json")) == before


def traced_peak(argv):
    """Traced peak bytes of one successful CLI run."""
    import tracemalloc

    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_schedule_holds_no_event_column(tmp_path):
    # the walk and the encoder hold one step and one text block of
    # JSON_BLOCK_PAIRS pairs (~1 MB), whatever the file's size; storing the
    # columns and encoding them 2^15 pairs at a time peaked at 8.2 MB here
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "1", "--out", out]) == 0
    peak = traced_peak(["schedule", "--m", "64", "--out", out])
    size = os.path.getsize(os.path.join(out, "schedule_m64.json"))
    assert size > 5_000_000
    assert peak < 2_000_000, (peak, size)


def test_schedule_streams_the_tournament_stage_by_stage(tmp_path):
    # the walk holds the per-system taus and one stage (the first is half the
    # pairs): 9.2 MB for this 17.7 MB file; the stored tournament peaked at 15.0 MB
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "1", "--out", out]) == 0
    peak = traced_peak(["schedule", "--m", "1", "--tournament", "18", "--out", out])
    size = os.path.getsize(os.path.join(out, "schedule_tournament_n18.json"))
    assert size > 17_000_000
    assert peak < 0.65 * size, (peak, size)


@pytest.mark.parametrize("n", ["0", "21"])
def test_schedule_tournament_out_of_range_exit_2_no_files(tmp_path, monkeypatch, n):
    def refuse(n):
        raise AssertionError("the tournament size is checked before any build")

    monkeypatch.setattr("swapcool.cli.tournament_run", refuse)
    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "1", "--tournament", n, "--out", out]) == 2
    assert not os.path.exists(out)


def test_schedule_pairs_over_the_run_cap_exit_2_no_files(tmp_path, monkeypatch):
    # each m is in range, but m = 255 and 256 together hold 11.2 M pair events
    def refuse(*args):
        raise AssertionError("the run's pair total is checked before any run")

    monkeypatch.setattr("swapcool.cli.improved_run", refuse)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["schedule", "--m", "255,256", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_schedule_run_cap_admits_the_largest_of_each_kind(tmp_path, monkeypatch):
    class Built(Exception):
        pass

    def stop(*args):
        raise Built

    assert SCHEDULE_MAX_PAIRS == improved_pair_count(IMPROVED_MAX_M) + 2 ** TOURNAMENT_MAX_N - 1
    assert SCHEDULE_MAX_PAIRS == 6_673_791
    monkeypatch.setattr("swapcool.cli.improved_run", stop)
    with pytest.raises(Built):    # past the cap check, at the first run
        main(["schedule", "--m", str(IMPROVED_MAX_M), "--tournament", str(TOURNAMENT_MAX_N),
              "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["schedule", "coeffs"])
def test_m_above_max_exit_2_no_files(tmp_path, monkeypatch, command):
    def refuse(m):
        raise AssertionError("m is checked before any network runs")

    monkeypatch.setattr("swapcool.kernels.ImprovedSteps", refuse)
    out = str(tmp_path / "o")
    assert main([command, "--m", "4,257", "--out", out]) == 2
    assert not os.path.exists(out)


def test_coeffs_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["coeffs", "--m", "4,8", "--out", out]) == 0
    names = os.listdir(out)
    assert "K_m4.csv" in names and "K_m8.json" in names
    assert "step_star.csv" in names and "scaling_summary.json" in names
    assert sum(1 for n in names if n.startswith("cut_")) == 8
    table = read(os.path.join(out, "step_star.csv")).strip().split("\n")
    assert table[0] == "m,step_star,step_star_over_m2"
    summary = json.loads(read(os.path.join(out, "scaling_summary.json")))
    assert summary["reports"][0]["lambda"] == 2


def test_row_cuts_stay_inside_the_matrix_at_m1(tmp_path):
    # row m // 2 = 0 of a 2-row matrix was read through index -1, the last row
    out = str(tmp_path / "o")
    assert main(["coeffs", "--m", "1,2", "--out", out]) == 0
    assert sorted(n for n in os.listdir(out) if n.startswith("cut_row")) == [
        "cut_row1_j1.csv", "cut_row2_j1.csv", "cut_row3_j1.csv", "cut_row4_j2.csv"]
    (report,) = json.loads(read(os.path.join(out, "scaling_summary.json")))["reports"]
    assert [c["position"] for c in report["cuts"] if c["axis"] == "row"] == [1, 1, 1, 2]


def test_step_star_table_includes_hand_values(tmp_path):
    out = str(tmp_path / "o")
    assert main(["coeffs", "--m", "1,2", "--out", out]) == 0
    rows = read(os.path.join(out, "step_star.csv")).strip().split("\n")[1:]
    assert rows[0].startswith("1,1,")
    assert rows[1].startswith("2,3,")


def test_xi_requires_coeffs_first(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["xi", "--model", "b", "--dims", "8", "--out", out]) == 2
    base = os.path.join(out, "K_m128.json")
    assert capsys.readouterr().err == (
        f"error: coefficient base {base} not found; run `swapcool coeffs` first\n")
    assert not os.path.exists(out)


def test_xi_command(tmp_path):
    out = str(tmp_path / "o")
    assert main(["coeffs", "--m", "16", "--out", out]) == 0
    assert main(["xi", "--model", "a,b", "--dims", "8,16", "--alphas", "1,2",
                 "--out", out, "--k-base", os.path.join(out, "K_m16.json")]) == 0
    lines = read(os.path.join(out, "xi.csv")).strip().split("\n")
    assert lines[0] == ("model,dim,alpha,m_alpha,xi,m_bound,"
                       "constraint_violated,reference_only")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 8
    for r in rows:
        float(r[4])                       # xi column is a bare round-trip float
        assert "(" not in r[4]
    a_rows = [r for r in rows if r[0] == "a"]
    assert all(r[7] == "true" for r in a_rows)
    b_rows = [r for r in rows if r[0] == "b"]
    assert all(r[7] == "false" for r in b_rows)
    # alpha-independence of the dim-8 cells
    b8 = [r for r in b_rows if r[1] == "8"]
    assert b8[0][4] == b8[1][4]


@pytest.mark.parametrize("alphas", [",", "", "1,-1"])
def test_xi_bad_alphas_exit_2_no_files(tmp_path, alphas):
    out = str(tmp_path / "o")
    assert main(["xi", "--alphas", alphas, "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("payload", [{"k": [[0, 1, 0], [0, 1, 0]]}, [1, 2],
                                     {"m": 1, "k": [[0, 1, 0]]}],
                         ids=["missing-m", "top-level-list", "wrong-shape"])
def test_xi_malformed_k_base_exit_2_no_xi(tmp_path, payload):
    out = tmp_path / "o"
    base = tmp_path / "K.json"
    base.write_text(json.dumps(payload))
    assert main(["xi", "--model", "b", "--dims", "8", "--k-base", str(base),
                 "--out", str(out)]) == 2
    assert not (out / "xi.csv").exists()


def test_xi_m_alpha_over_the_cap_exit_2_no_files(tmp_path, capsys):
    # dt 1e-6 on a/8 needs about 1.9 M steps, which the coefficient row and
    # the contraction would hold at about 65 B each
    out = tmp_path / "o"
    base = tmp_path / "K.json"
    base.write_bytes(encoded(coefficients_to_json,
                             propagate_coefficients(build_improved_schedule(2))))
    assert main(["xi", "--model", "a", "--dims", "8", "--alphas", "1", "--dt", "1e-6",
                 "--k-base", str(base), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    m = int(err.split("m_alpha = ")[1].split()[0])
    assert m > XI_MAX_M_ALPHA
    assert err == f"error: dt = 1e-06 needs m_alpha = {m} steps, over the cap {XI_MAX_M_ALPHA}\n"
    assert not out.exists()


def test_xi_overflowing_step_exit_2_no_files(tmp_path, capsys):
    # dt^2 overflows to inf above about 1.3e154; xi.csv held inf and the run exited 0
    out = tmp_path / "o"
    base = tmp_path / "K.json"
    base.write_bytes(encoded(coefficients_to_json,
                             propagate_coefficients(build_improved_schedule(4))))
    assert main(["xi", "--model", "b", "--dims", "8,16", "--alphas", "1", "--dt", "1e200",
                 "--k-base", str(base), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: xi at dt = 1e+200, m = 1 is not finite: inf\n"
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=a\ndims=4,8\ndelta=1.0\n")
    out = str(tmp_path / "o")
    assert main(["spectrum", "--config", str(cfg), "--dims", "4", "--out", out]) == 0
    names = os.listdir(out)
    assert "spectrum_a_dim4.txt" in names
    assert "spectrum_a_dim8.txt" not in names    # flag wins over config


@pytest.mark.parametrize("line,key", [("jobs=2", "jobs"), ("dim=8", "dim")])
def test_config_file_unknown_key_exit_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=a\ndims=4\n{line}\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown config key(s) in {cfg}: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_keys_of_other_commands_are_accepted(tmp_path, monkeypatch):
    # one file drives the pipeline: spectrum ignores the m_list and alphas it does not read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=a\ndims=4\nm_list=3\nalphas=1,2\n")
    out = str(tmp_path / "o")
    assert main(["spectrum", "--config", str(cfg), "--out", out]) == 0
    assert manifest_of(out)["config"] == {"command": "spectrum", "model": ["a"], "dims": [4],
                                          "delta": 1.0, "double": False, "out": out}
    assert main(["coeffs", "--config", str(cfg), "--out", out]) == 0
    assert manifest_of(out)["config"] == {"command": "coeffs", "m_list": [3], "out": out}
    # the command-only flags that change a run are recorded too
    assert main(["schedule", "--config", str(cfg), "--out", out]) == 0
    assert manifest_of(out)["config"] == {"command": "schedule", "m_list": [3], "out": out,
                                          "tournament": None}
    assert main(["schedule", "--config", str(cfg), "--tournament", "2", "--out", out]) == 0
    assert manifest_of(out)["config"] == {"command": "schedule", "m_list": [3], "out": out,
                                          "tournament": 2}
    from swapcool import verify as verify_mod

    monkeypatch.setattr(verify_mod, "run_verify",
                        lambda seed=0, full=False: [verify_mod.CheckResult("stub", True, {})])
    for flags, full in (([], False), (["--full"], True)):
        assert main(["verify", "--config", str(cfg), "--out", out] + flags) == 0
        assert manifest_of(out)["config"] == {"command": "verify", "seed": 0, "out": out,
                                              "full": full}


def test_command_only_settings_from_config_file(tmp_path, monkeypatch):
    # tournament, full and k_base are config keys like every other setting; flags win
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_list=1\ntournament=2\nfull=true\n")
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
    assert manifest_of(out)["config"]["tournament"] == 2
    assert (out / "schedule_tournament_n2.json").exists()
    assert main(["schedule", "--config", str(cfg), "--tournament", "3",
                 "--out", str(out / "flag")]) == 0
    assert manifest_of(out / "flag")["config"]["tournament"] == 3
    assert sorted(os.listdir(out / "flag")) == ["manifest.json", "schedule_m1.json",
                                                "schedule_tournament_n3.json"]

    from swapcool import verify as verify_mod

    seen = []

    def fast_run(seed=0, full=False):
        seen.append(full)
        return [verify_mod.CheckResult("stub", True, {})]

    monkeypatch.setattr(verify_mod, "run_verify", fast_run)
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert seen == [True] and manifest_of(out)["config"]["full"] is True

    assert main(["coeffs", "--m", "16", "--out", str(tmp_path / "k")]) == 0
    base = (tmp_path / "k" / "K_m16.json").read_text()
    for name in ("K_a.json", "K_b.json"):
        (tmp_path / name).write_text(base)
    cfg.write_text(f"model=b\ndims=8\nalphas=1\nk_base={tmp_path / 'K_a.json'}\n")
    assert main(["xi", "--config", str(cfg), "--out", str(out)]) == 0
    assert manifest_of(out)["config"]["k_base"] == "K_a.json"
    assert main(["xi", "--config", str(cfg), "--k-base", str(tmp_path / "K_b.json"),
                 "--out", str(out)]) == 0
    assert manifest_of(out)["config"]["k_base"] == "K_b.json"


def test_tournament_out_of_range_in_config_file_exit_2_no_files(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_list=1\ntournament=0\n")
    out = tmp_path / "o"
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--delta", "nan"],
    ["spectrum", "--delta", "inf"],
    ["protocol", "--dt", "nan"],
    ["protocol", "--dt", "inf"],
    ["flow", "--t-max", "inf"],
    ["flow", "--t-max", "nan"],
    ["flow", "--target-c", "nan"],
    ["xi", "--delta=-inf"],
], ids=["delta-nan", "delta-inf", "dt-nan", "dt-inf", "t_max-inf", "t_max-nan",
        "target_c-nan", "xi-delta-minus-inf"])
def test_non_finite_number_exit_2_no_files(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--model", "a", "--dims", "8", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "flow"])
def test_overflowing_doubled_spectrum_exit_2_no_files(tmp_path, capsys, command):
    # doubling model b at delta 1e308 needs 1e308 - (-1e308), which overflows
    out = tmp_path / "o"
    assert main([command, "--model", "b", "--dims", "8", "--delta", "1e308", "--double",
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["-1", "0"])
def test_flow_non_positive_t_max_exit_2_no_files(tmp_path, capsys, t_max):
    out = tmp_path / "o"
    assert main(["flow", "--model", "a", "--dims", "8", f"--t-max={t_max}",
                 "--out", str(out)]) == 2
    assert "positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims, double", [(MAX_LEVELS + 1, False), (1025, True)],
                         ids=["dim", "doubled"])
def test_flow_spectrum_over_the_level_cap_exit_2_no_files(tmp_path, capsys, dims, double):
    # the smallest dims past the cap: 2^20 + 1 levels, or 1025^2 once doubled
    out = tmp_path / "o"
    argv = ["flow", "--model", "a", "--dims", str(dims), "--out", str(out)]
    assert main(argv + ["--double"] * double) == 2
    assert str(MAX_LEVELS) in capsys.readouterr().err
    assert not out.exists()


def test_flow_grid_above_cap_exit_2_no_files(tmp_path, monkeypatch):
    # model a at dim 8 has gap 1, so the default step is 0.01 and this t_max asks
    # for FLOW_MAX_POINTS + 1 rows
    def refuse(*args):
        raise AssertionError("the grid is checked before any flow runs")

    monkeypatch.setattr("swapcool.experiments.flow_series", refuse)
    t_max = repr(experiments.FLOW_MAX_POINTS * 0.01 - 0.005)
    out = tmp_path / "o"
    assert main(["flow", "--model", "a", "--dims", "8", "--t-max", t_max,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_flow_grid_cap_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "FLOW_MAX_POINTS", 11)
    argv = ["flow", "--model", "a", "--dims", "8", "--dt", "1"]
    assert main(argv + ["--t-max", "10", "--out", str(tmp_path / "ok")]) == 0
    rows = read(tmp_path / "ok" / "flow_a_dim8.csv").strip().split("\n")[1:]
    assert len(rows) == 11
    assert main(argv + ["--t-max", "10.001", "--out", str(tmp_path / "over")]) == 2
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), ("Yes", True),
                                         ("0", False), ("false", False), ("NO", False)])
def test_parse_switch_accepts_its_words(text, value):
    assert parse_switch(text) is value


@pytest.mark.parametrize("line", ["double=ture", "double=", "double=2"])
def test_malformed_switch_in_config_file_exit_2_no_files(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=a\ndims=4\n{line}\n")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coeffs", "--model", "a"],
    ["schedule", "--dt", "0.1"],
    ["verify", "--dims", "8"],
    ["spectrum", "--seed", "1"],
    ["flow", "--seed", "1"],
], ids=["coeffs-model", "schedule-dt", "verify-dims", "spectrum-seed", "flow-seed"])
def test_flag_the_command_does_not_read_exit_2(tmp_path, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# every (command, list setting) pair: a setting is a list when its default parses to one
LIST_SETTINGS = [(name, key) for name, command in COMMANDS.items() for key in command.settings
                 if SETTINGS[key].default is not None
                 and isinstance(SETTINGS[key].parse(SETTINGS[key].default), list)]


def test_list_settings_are_the_known_four():
    assert {key for _, key in LIST_SETTINGS} == {"model", "dims", "alphas", "m_list"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key", LIST_SETTINGS,
                         ids=[f"{name}-{key}" for name, key in LIST_SETTINGS])
def test_repeated_list_value_exit_2_no_files(tmp_path, capsys, command, key, source):
    # a repeat would run the same model, dim, alpha or m twice (and `coeffs`
    # would report K_m against itself)
    first = SETTINGS[key].parse(SETTINGS[key].default)[0]
    text = f"{first},{first}"
    out = tmp_path / "o"
    if source == "flag":
        argv = [command, SETTINGS[key].flag, text]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={text}\n")
        argv = [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{key}: a value repeats" in capsys.readouterr().err
    assert not out.exists()


def test_each_subcommand_accepts_only_its_settings():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(COMMANDS)
    read_somewhere = set()
    n_options = 0
    for name, sub in subparsers.items():
        options = {opt for action in sub._actions for opt in action.option_strings}
        options -= {"-h", "--help"}
        flags = {SETTINGS[key].flag for key in COMMANDS[name].settings}
        assert options == {"--config", "--out"} | flags, name
        read_somewhere |= set(COMMANDS[name].settings)
        n_options += len(options)
    assert CONFIG_KEYS == read_somewhere
    assert n_options == 42


def test_manifest_lists_hashes(tmp_path):
    out = str(tmp_path / "o")
    assert main(["spectrum", "--model", "a", "--dims", "4", "--out", out]) == 0
    man = manifest_of(out)
    assert man["config"]["command"] == "spectrum"
    recorded = {f["path"]: f["sha256"] for f in man["files"]}
    for name, digest in recorded.items():
        actual = hashlib.sha256(read(os.path.join(out, name)).encode()).hexdigest()
        assert actual == digest
    assert len(man["stages"]) >= 1


@pytest.mark.parametrize("argv", [["schedule", "--m", "2", "--tournament", "2"],
                                  ["coeffs", "--m", "2,4"]], ids=["schedule", "coeffs"])
def test_manifest_records_each_file_size_and_hash(tmp_path, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 0
    files = manifest_of(out)["files"]
    assert sorted(f["path"] for f in files) == sorted(set(os.listdir(out)) - {"manifest.json"})
    for f in files:
        data = (out / f["path"]).read_bytes()
        assert (f["bytes"], f["sha256"]) == (len(data), hashlib.sha256(data).hexdigest())


def test_failed_write_leaves_target_manifest_and_directory_as_they_were(tmp_path):
    # the temporary file used to stay behind as .<name>.tmp-<pid>
    target = tmp_path / "schedule_m2.json"
    target.write_bytes(b"earlier run\n")
    manifest = RunManifest(config={}, version="0")
    with pytest.raises(OSError, match="disk full"):
        with atomic_output(str(target), manifest) as write:
            blocks = []

            def failing(data):
                if len(blocks) == 2:        # the header, then the first block of pairs
                    raise OSError("disk full")
                blocks.append(data)
                write(data)

            schedule_to_json(build_improved_schedule(2), failing)
    with pytest.raises(TypeError):
        write_atomic(str(target), [b"not bytes"], manifest)
    assert os.listdir(tmp_path) == ["schedule_m2.json"]
    assert target.read_bytes() == b"earlier run\n"
    assert manifest.files == []


def test_manifest_carries_earlier_runs(tmp_path):
    out = tmp_path / "o"
    xi = ["xi", "--model", "b", "--dims", "8", "--alphas", "1",
          "--k-base", str(out / "K_m8.json"), "--out", str(out)]
    assert main(["coeffs", "--m", "4,8", "--out", str(out)]) == 0
    assert main(xi) == 0

    def recorded(man):
        runs = [man] + man["earlier_runs"]
        return {f["path"]: f["sha256"] for run in runs for f in run["files"]}

    man = manifest_of(out)
    assert man["config"]["command"] == "xi"
    assert [run["config"]["command"] for run in man["earlier_runs"]] == ["coeffs"]
    names = sorted(os.listdir(out))
    names.remove("manifest.json")
    assert len(names) == 15
    assert recorded(man) == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                             for name in names}
    # a rerun replaces its own entry, so the file stays bounded
    assert main(xi) == 0
    assert main(["coeffs", "--m", "4,8", "--out", str(out)]) == 0
    man = manifest_of(out)
    assert man["config"]["command"] == "coeffs"
    assert [run["config"]["command"] for run in man["earlier_runs"]] == ["xi"]
    assert len(recorded(man)) == 15


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"config": {}}',
                                  '{"config": 1, "version": "", "environment": {}, '
                                  '"stages": [], "files": []}',
                                  '{"config": {}, "version": "", "environment": {}, '
                                  '"stages": [], "files": [], "earlier_runs": [3]}'],
                         ids=["not-json", "list", "keys", "config", "earlier"])
def test_malformed_manifest_in_out_dir_exit_2_no_files(tmp_path, capsys, text):
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert main(["spectrum", "--model", "a", "--dims", "4", "--out", str(out)]) == 2
    assert "not a manifest" in capsys.readouterr().err
    assert os.listdir(out) == ["manifest.json"]


def test_manifest_records_environment_and_stage_peaks(tmp_path):
    import platform

    from swapcool import kernels

    out = str(tmp_path / "o")
    assert main(["schedule", "--m", "2", "--out", out]) == 0
    man = manifest_of(out)
    assert man["environment"] == {"python": platform.python_version(),
                                  "numpy": np.__version__, "cpu_count": os.cpu_count(),
                                  "kernel_backend": kernels.BACKEND}
    (stage,) = man["stages"]
    assert stage["name"] == "schedules"
    assert stage["seconds"] >= 0
    # numpy alone takes more than 10 MB of resident memory
    assert 10 < stage["peak_rss_mb"] < 10_000


def test_deterministic_reruns(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert main(["flow", "--model", "b,d", "--dims", "8,16", "--out", out]) == 0
        assert main(["coeffs", "--m", "4,8", "--out", out]) == 0
    for name in sorted(os.listdir(out1)):
        if name == "manifest.json":
            continue
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name)), name
    # the manifests agree on every file hash (timings may differ)
    f1 = {f["path"]: f["sha256"] for f in manifest_of(out1)["files"]}
    f2 = {f["path"]: f["sha256"] for f in manifest_of(out2)["files"]}
    assert f1 == f2


# coeffs --m 2,4: K, step* and cut entries are dyadic rationals, exact on any platform
PINNED_CSV_SHA256 = {
    "K_m2.csv": "f79a03fa3f1d8d33fd7c3e1dc0365ca2332bbe49e0bfa667215f6d91b6a5bf61",
    "K_m4.csv": "4e85a84ad4dd496738fd51156bb6261045fc5dee94bcc2dd43003b74038af694",
    "cut_col1_k-1.csv": "efff3d16ab53b01081db856bb62e85fabe3026b3ab88ec60d7125b25bdc2a1e9",
    "cut_col2_k0.csv": "b62db64e340b643fc2662937849ba705608824f4c1add61812c6988610ecdaa4",
    "cut_col3_k1.csv": "f392d2182ae1d5304f995ccffb7e2bc18f6a76893af110f92a0ac318ed2db2ac",
    "cut_col4_k1.csv": "f392d2182ae1d5304f995ccffb7e2bc18f6a76893af110f92a0ac318ed2db2ac",
    "cut_row1_j1.csv": "f0174786fe943fd1ae136bf2cc82678de10f1712ab748ca3f219a6e57dffe30f",
    "cut_row2_j2.csv": "1734e934d1de5c0d925e5a548e10ca8993162feaa1d29fff1a5a03e4778866b8",
    "cut_row3_j3.csv": "229f0a1483ea69171f8402fd5ab1eea4786d93a02fcc791111c195c4c4f4a801",
    "cut_row4_j4.csv": "12323721b548e11fd146c579ea2a77fbac8d2675bb09681f196621129d56f769",
    "step_star.csv": "535cfb769864fa7371f215e5728b4ef5b04c437b6478bd6c2a7b3fb5a1edbd91",
}


def test_every_csv_speaks_one_dialect(tmp_path):
    out = str(tmp_path / "o")
    assert main(["coeffs", "--m", "2,4", "--out", out]) == 0
    assert main(["xi", "--model", "b,d", "--dims", "8,16", "--alphas", "1,2", "--out", out,
                 "--k-base", os.path.join(out, "K_m4.json")]) == 0
    assert main(["flow", "--model", "a,c", "--dims", "8,16", "--out", out]) == 0
    names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    assert len(names) == 16
    for name in names:
        text = read(os.path.join(out, name))
        assert text.endswith("\n") and not text.endswith("\n\n"), name
        header, *rows = [line.split(",") for line in text[:-1].split("\n")]
        assert rows and all(len(row) == len(header) for row in rows), name
        for cell in (cell for row in rows for cell in row):
            if not cell.lstrip("-").isdigit() and cell not in ("true", "false", "b", "d"):
                assert cell == repr(float(cell)), (name, cell)
    assert {name: hashlib.sha256(read(os.path.join(out, name)).encode()).hexdigest()
            for name in PINNED_CSV_SHA256} == PINNED_CSV_SHA256


def test_jobs_flag_rejected(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--model", "a", "--dims", "8", "--jobs", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_verify_command_smoke(tmp_path, monkeypatch):
    # trim the heavy checks: core verify on a reduced profile is still minutes;
    # run it as the acceptance suite does but only assert wiring here
    out = str(tmp_path / "o")
    from swapcool import verify as verify_mod

    def fast_run(seed=0, full=False):
        return [verify_mod.CheckResult("stub", True, {})]

    monkeypatch.setattr(verify_mod, "run_verify", fast_run)
    assert main(["verify", "--out", out]) == 0
    report = json.loads(read(os.path.join(out, "verify_report.json")))
    assert report["passed"] is True
    assert [s["name"] for s in manifest_of(out)["stages"]] == ["verify"]


def test_verify_command_failure_exit_code(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "o")
    from swapcool import verify as verify_mod

    def fast_run(seed=0, full=False):
        return [verify_mod.CheckResult("stub", False, {"why": "testing"})]

    monkeypatch.setattr(verify_mod, "run_verify", fast_run)
    assert main(["verify", "--out", out]) == 1
    streams = capsys.readouterr()
    assert streams.out == "FAIL  stub\n"
    assert streams.err == "verification failed: stub\n"
    # a failed verification still explains itself
    man = manifest_of(out)
    assert [s["name"] for s in man["stages"]] == ["verify"]
    assert [f["path"] for f in man["files"]] == ["verify_report.json"]
    assert json.loads(read(os.path.join(out, "verify_report.json")))["passed"] is False


def test_main_runs_any_command_through_one_path(tmp_path, monkeypatch):
    # a command main has never heard of: the table entry alone wires it up
    seen = {}

    def run(cfg, manifest):
        seen["manifest"] = manifest
        write_atomic(os.path.join(cfg.out, "stub.txt"), f"m={cfg.m_list}\n", manifest)
        return 0

    monkeypatch.setitem(COMMANDS, "stub", Command("a stub", ("m_list", "out"), "stub_stage",
                                                  run, {"m_list": "3"}))
    out = str(tmp_path / "o")
    assert main(["stub", "--out", out]) == 0
    assert read(os.path.join(out, "stub.txt")) == "m=[3]\n"
    man = manifest_of(out)
    assert man == seen["manifest"].to_json()
    assert man["config"] == {"command": "stub", "m_list": [3], "out": out}
    assert [s["name"] for s in man["stages"]] == ["stub_stage"]
    assert [f["path"] for f in man["files"]] == ["stub.txt"]


def test_doubled_outputs_carry_suffix(tmp_path):
    out = str(tmp_path / "o")
    assert main(["flow", "--model", "a", "--dims", "4", "--double", "--out", out]) == 0
    assert main(["protocol", "--model", "a", "--dims", "4", "--double",
                 "--out", out]) == 0
    names = os.listdir(out)
    assert "flow_a_dim4_doubled.csv" in names
    assert "protocol_a_dim4_doubled.json" in names
    # doubled 4-level spectrum: 16 levels, threefold-degenerate ground
    t, p1, pg = np.loadtxt(os.path.join(out, "flow_a_dim4_doubled.csv"),
                           delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
    assert pg[0] == pytest.approx(3 / 16)
    assert pg[0] == pytest.approx(3 * p1[0])


def test_unwritable_out_dir_exit_2(tmp_path):
    blocked = tmp_path / "f"
    blocked.write_text("not a directory")
    assert main(["spectrum", "--model", "a", "--dims", "4",
                 "--out", str(blocked / "sub")]) == 2
