"""Command-line driver.

Subcommands: spectrum, flow, protocol, schedule, coeffs, xi, verify.
Exit codes: 0 success, 1 verification failure, 2 invalid input.  Every run
writes the dataset files atomically plus a manifest listing each file with
its content hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, experiments, verify
from .hamiltonian import (
    MODEL_KINDS,
    build_model,
    double,
    spectrum_to_json,
    spectrum_to_text,
)
from .experiments import ExperimentConfig, RunManifest, StageTimer, write_atomic, write_manifest
from .network import (
    build_improved_schedule,
    build_tournament_schedule,
    coefficients_from_json,
    coefficients_to_json,
    schedule_to_json,
)
from .protocol import apply_protocol, protocol_output_to_json
from .quantum import uniform_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


def parse_dims(text: str) -> list[int]:
    """"8..512" doubles from 8 to 512; "8,16,32" is an explicit list."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 2 or hi < lo:
            raise ValueError(f"bad dims range {text!r}")
        dims = []
        d = lo
        while d <= hi:
            dims.append(d)
            d *= 2
        return dims
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# every key some subcommand reads from a config file
CONFIG_KEYS = frozenset({"model", "dims", "delta", "dt", "double", "out", "seed",
                         "t_max", "target_c", "alphas", "m_list"})


def load_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and '#' comments ignored.  A key no
    subcommand reads raises ValueError."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swapcool",
                                     description="energy-transfer protocol experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file (flags win)")
        p.add_argument("--model", help="comma list from {a,b,c,d}", default=None)
        p.add_argument("--dims", help="e.g. 8..512 (powers of 2) or 8,16,32", default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--dt", type=float, default=None,
                       help="protocol step; default 0.01/gap")
        p.add_argument("--double", action="store_true", default=None,
                       help="replace each spectrum by its doubled version")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p_spec = sub.add_parser("spectrum", help="emit model spectra (text + JSON)")
    common(p_spec)

    p_flow = sub.add_parser("flow", help="ground-population trajectories with bounds")
    common(p_flow)
    p_flow.add_argument("--t-max", type=float, default=None)
    p_flow.add_argument("--target-c", type=float, default=None,
                        help="trajectory reaches past t_c of this target (default 0.99)")

    p_proto = sub.add_parser("protocol", help="single protocol application as JSON")
    common(p_proto)

    p_sched = sub.add_parser("schedule", help="pairing schedules as JSON")
    common(p_sched)
    p_sched.add_argument("--m", dest="m_list", default=None,
                         help="comma list of m values (default 1,2,4)")
    p_sched.add_argument("--tournament", type=int, default=None, metavar="N",
                         help="also emit the 2^N-system tournament schedule")

    p_coef = sub.add_parser("coeffs", help="coefficient matrices and scaling study")
    common(p_coef)
    p_coef.add_argument("--m", dest="m_list", default=None,
                        help="comma list of m values (default 16,32,64,128)")

    p_xi = sub.add_parser("xi", help="network-error diagnostic sweep")
    common(p_xi)
    p_xi.add_argument("--alphas", default=None, help="comma list (default 1,2,3,4)")
    p_xi.add_argument("--k-base", default=None,
                      help="coefficient JSON from `coeffs` to rescale "
                           "(default <out>/K_m128.json)")

    p_ver = sub.add_parser("verify", help="oracle and invariant suites")
    common(p_ver)
    p_ver.add_argument("--full", action="store_true",
                       help="include the scaling, xi-trend and determinism suites")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    file_vals = load_config_file(args.config) if args.config else {}

    def pick(flag_val, key, cast, fallback):
        if flag_val is not None:
            return flag_val
        if key in file_vals:
            return cast(file_vals[key])
        return fallback

    cfg.models = pick(args.model and [m.strip() for m in args.model.split(",")],
                      "model", lambda s: [m.strip() for m in s.split(",")], cfg.models)
    cfg.dims = pick(args.dims and parse_dims(args.dims), "dims", parse_dims, cfg.dims)
    cfg.delta = pick(args.delta, "delta", float, cfg.delta)
    cfg.dt = pick(args.dt, "dt", float, cfg.dt)
    cfg.use_double = bool(pick(args.double, "double",
                               lambda s: s.lower() in ("1", "true", "yes"), False))
    cfg.out_dir = pick(args.out, "out", str, cfg.out_dir)
    cfg.seed = pick(args.seed, "seed", int, cfg.seed)
    if hasattr(args, "t_max"):
        cfg.t_max = pick(args.t_max, "t_max", float, cfg.t_max)
    if hasattr(args, "target_c"):
        cfg.target_c = pick(args.target_c, "target_c", float, cfg.target_c)
    if hasattr(args, "alphas"):
        cfg.alphas = pick(args.alphas and parse_int_list(args.alphas),
                          "alphas", parse_int_list, cfg.alphas)
    if getattr(args, "m_list", None) is not None or "m_list" in file_vals:
        cfg.m_list = pick(args.m_list and parse_int_list(args.m_list),
                          "m_list", parse_int_list, cfg.m_list)
    elif args.command == "schedule":
        cfg.m_list = [1, 2, 4]

    for kind in cfg.models:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model {kind!r}")
    if not cfg.dims:
        raise ValueError("empty dims list")
    if cfg.dt is not None and cfg.dt <= 0:
        raise ValueError("dt must be positive")
    # probe every (model, dim) combination up front so commands never leave
    # partial outputs behind on invalid input
    if args.command in ("spectrum", "flow", "protocol", "xi"):
        for kind in cfg.models:
            for dim in cfg.dims:
                build_model(kind, dim, cfg.delta)
    if args.command in ("schedule", "coeffs"):
        for m in cfg.m_list:
            if m < 1:
                raise ValueError(f"m must be >= 1, got {m}")
    return cfg


def _new_manifest(cfg: ExperimentConfig, command: str) -> RunManifest:
    config = cfg.to_json()
    config["command"] = command
    return RunManifest(config=config, version=__version__)


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    manifest = _new_manifest(cfg, "spectrum")
    with StageTimer(manifest, "spectra"):
        for kind in cfg.models:
            for dim in cfg.dims:
                spec = build_model(kind, dim, cfg.delta)
                if cfg.use_double:
                    spec = double(spec)
                name = f"spectrum_{kind}_dim{dim}" + ("_doubled" if cfg.use_double else "")
                write_atomic(os.path.join(cfg.out_dir, name + ".txt"),
                             spectrum_to_text(spec), manifest)
                write_atomic(os.path.join(cfg.out_dir, name + ".json"),
                             json.dumps(spectrum_to_json(spec)) + "\n", manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_flow(cfg: ExperimentConfig) -> int:
    manifest = _new_manifest(cfg, "flow")
    with StageTimer(manifest, "flow"):
        for kind in cfg.models:
            for dim in cfg.dims:
                csv_text = experiments.flow_csv(kind, dim, cfg.delta, cfg.dt, cfg.t_max,
                                                cfg.target_c, cfg.use_double)
                name = f"flow_{kind}_dim{dim}" + ("_doubled" if cfg.use_double else "")
                write_atomic(os.path.join(cfg.out_dir, name + ".csv"), csv_text, manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_protocol(cfg: ExperimentConfig) -> int:
    manifest = _new_manifest(cfg, "protocol")
    with StageTimer(manifest, "protocol"):
        for kind in cfg.models:
            for dim in cfg.dims:
                spec = experiments.make_spectrum(kind, dim, cfg.delta, cfg.use_double)
                dt = experiments.resolve_dt(spec, cfg.dt)
                out = apply_protocol(uniform_state(spec.dim), spec, dt)
                payload = protocol_output_to_json(out)
                payload["model"] = kind
                payload["dim"] = dim
                name = f"protocol_{kind}_dim{dim}" + ("_doubled" if cfg.use_double else "")
                write_atomic(os.path.join(cfg.out_dir, name + ".json"),
                             json.dumps(payload) + "\n", manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_schedule(cfg: ExperimentConfig, tournament: int | None) -> int:
    manifest = _new_manifest(cfg, "schedule")
    with StageTimer(manifest, "schedules"):
        for m in cfg.m_list:
            sched = build_improved_schedule(m)
            sched.validate()
            write_atomic(os.path.join(cfg.out_dir, f"schedule_m{m}.json"),
                         json.dumps(schedule_to_json(sched)) + "\n", manifest)
        if tournament is not None:
            sched = build_tournament_schedule(tournament)
            write_atomic(os.path.join(cfg.out_dir, f"schedule_tournament_n{tournament}.json"),
                         json.dumps(schedule_to_json(sched)) + "\n", manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_coeffs(cfg: ExperimentConfig) -> int:
    manifest = _new_manifest(cfg, "coeffs")
    with StageTimer(manifest, "coefficients"):
        data = experiments.coeffs_dataset(cfg.m_list)
        for m, kmat in sorted(data.matrices.items()):
            write_atomic(os.path.join(cfg.out_dir, f"K_m{m}.csv"), kmat.to_csv(), manifest)
            write_atomic(os.path.join(cfg.out_dir, f"K_m{m}.json"),
                         json.dumps(coefficients_to_json(kmat)) + "\n", manifest)
        for name, csv_text in sorted(data.cuts.items()):
            write_atomic(os.path.join(cfg.out_dir, f"{name}.csv"), csv_text, manifest)
        write_atomic(os.path.join(cfg.out_dir, "step_star.csv"),
                     data.step_star_csv(), manifest)
        summary = {"reports": [r.to_json() for r in data.reports]}
        write_atomic(os.path.join(cfg.out_dir, "scaling_summary.json"),
                     json.dumps(summary, indent=1, sort_keys=True) + "\n", manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_xi(cfg: ExperimentConfig, k_base_path: str | None) -> int:
    path = k_base_path or os.path.join(cfg.out_dir, f"K_m{experiments.XI_BASE_M}.json")
    if not os.path.exists(path):
        print(f"error: coefficient base {path} not found; run `swapcool coeffs` first",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    with open(path) as fh:
        base = coefficients_from_json(json.load(fh))
    manifest = _new_manifest(cfg, "xi")
    manifest.config["k_base"] = os.path.basename(path)
    with StageTimer(manifest, "xi"):
        rows = experiments.xi_sweep(cfg.models, cfg.dims, cfg.alphas, base,
                                    cfg.delta, cfg.dt, cfg.use_double)
        write_atomic(os.path.join(cfg.out_dir, "xi.csv"),
                     experiments.xi_rows_to_csv(rows), manifest)
    write_manifest(cfg.out_dir, manifest)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, full: bool) -> int:
    manifest = _new_manifest(cfg, "verify")
    with StageTimer(manifest, "verify"):
        results = verify.run_verify(seed=cfg.seed, full=full)
    report = verify.report_to_json(results)
    write_atomic(os.path.join(cfg.out_dir, "verify_report.json"),
                 json.dumps(report, indent=1, sort_keys=True) + "\n", manifest)
    write_manifest(cfg.out_dir, manifest)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}")
    if not report["passed"]:
        failing = [r.name for r in results if not r.passed]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "flow":
            return cmd_flow(cfg)
        if args.command == "protocol":
            return cmd_protocol(cfg)
        if args.command == "schedule":
            return cmd_schedule(cfg, args.tournament)
        if args.command == "coeffs":
            return cmd_coeffs(cfg)
        if args.command == "xi":
            return cmd_xi(cfg, args.k_base)
        if args.command == "verify":
            return cmd_verify(cfg, args.full)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
