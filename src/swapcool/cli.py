"""Command-line driver.

Subcommands: spectrum, flow, protocol, schedule, coeffs, xi, verify.
Exit codes: 0 success, 1 verification failure, 2 invalid input.  Every run
writes the dataset files atomically plus a manifest listing each file with
its content hash; the manifest carries the earlier runs of other commands
into the same directory forward.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import __version__, experiments, verify
from .hamiltonian import MODEL_KINDS, spectrum_to_json, spectrum_to_text
from .experiments import RunManifest, atomic_output, write_atomic
from .kernels import improved_pair_count
from .network import (
    IMPROVED_MAX_M,
    SCHEDULE_MAX_PAIRS,
    check_tournament_n,
    coefficients_from_json,
    coefficients_to_json,
    improved_run,
    schedule_to_json,
    tournament_run,
)
from .protocol import apply_protocol, protocol_output_to_json
from .quantum import uniform_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


def _distinct(values: list) -> list:
    """The values; ValueError if one repeats, since it would run twice."""
    if len(set(values)) < len(values):
        raise ValueError(f"a value repeats in {values}")
    return values


def parse_dims(text: str) -> list[int]:
    """"8..512" doubles from 8 to 512; "8,16,32" is an explicit list of
    distinct dims."""
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
    dims = [int(tok) for tok in text.split(",") if tok.strip()]
    if not dims:
        raise ValueError("empty dims list")
    return _distinct(dims)


def parse_int_list(text: str, least: int, most: float = float("inf")) -> list[int]:
    """A comma list of one or more distinct ints, each in [least, most]."""
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values or min(values) < least or max(values) > most:
        raise ValueError(f"need one or more values, each in [{least}, {most}], got {text!r}")
    return _distinct(values)


def parse_models(text: str) -> list[str]:
    models = [m.strip() for m in text.split(",")]
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model {kind!r}")
    return _distinct(models)


def parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, got {text!r}")
    return value


def parse_positive(text: str) -> float:
    value = parse_finite(text)
    if value <= 0:
        raise ValueError(f"need a positive number, got {text!r}")
    return value


def parse_switch(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"need one of 1/0, true/false, yes/no, got {text!r}")
    return value in ("1", "true", "yes")


def parse_tournament(text: str) -> int:
    n = int(text)
    check_tournament_n(n)
    return n


@dataclass(frozen=True)
class Setting:
    """A setting's flag, its default (None: unset, or worked out per spectrum
    by the command) and the one parser for flag and config-file text alike;
    config files name it by its key in SETTINGS."""

    flag: str
    default: str | None
    parse: Callable[[str], object]
    help: str
    switch: bool = False         # a bare flag that sets the text "true"


SETTINGS = {
    "model": Setting("--model", "a,b,c,d", parse_models, "comma list from {a,b,c,d}"),
    "dims": Setting("--dims", "8..512", parse_dims, "e.g. 8..512 (powers of 2) or 8,16,32"),
    "delta": Setting("--delta", "1.0", parse_finite, "energy scale of the model spectra"),
    "double": Setting("--double", "false", parse_switch,
                      "replace each spectrum by its doubled version", switch=True),
    "dt": Setting("--dt", None, parse_positive, "protocol step; default 0.01/gap"),
    "t_max": Setting("--t-max", None, parse_positive,
                     "trajectory end; default 2 t_c upper bound"),
    "target_c": Setting("--target-c", "0.99", parse_finite,
                        "trajectory reaches past t_c of this target"),
    "alphas": Setting("--alphas", "1,2,3,4", partial(parse_int_list, least=0),
                      "comma list, each >= 0"),
    "m_list": Setting("--m", "16,32,64,128",
                      partial(parse_int_list, least=1, most=IMPROVED_MAX_M),
                      f"comma list of m values, each in [1, {IMPROVED_MAX_M}]"),
    "tournament": Setting("--tournament", None, parse_tournament,
                          "also emit the 2^N-system tournament schedule"),
    "k_base": Setting("--k-base", None, str, "coefficient JSON from `coeffs` to rescale "
                      f"(default <out>/K_m{experiments.XI_BASE_M}.json)"),
    "seed": Setting("--seed", "0", int, "seed of the randomised checks"),
    "full": Setting("--full", "false", parse_switch,
                    "include the scaling, xi-trend and determinism suites", switch=True),
    "out": Setting("--out", "out", str, "output directory"),
}


def _spectrum_name(prefix: str, kind: str, dim: int, doubled: bool) -> str:
    return f"{prefix}_{kind}_dim{dim}" + ("_doubled" if doubled else "")


def _models(cfg: argparse.Namespace):
    """The model sweep of a command that builds spectra."""
    return experiments.model_sweep(cfg.model, cfg.dims, cfg.delta, cfg.double,
                                   getattr(cfg, "dt", None))


def cmd_spectrum(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    for kind, dim, spec, _, _ in _models(cfg):
        name = _spectrum_name("spectrum", kind, dim, cfg.double)
        write_atomic(os.path.join(cfg.out, name + ".txt"), spectrum_to_text(spec), manifest)
        write_atomic(os.path.join(cfg.out, name + ".json"),
                     json.dumps(spectrum_to_json(spec)) + "\n", manifest)
    return EXIT_OK


def cmd_flow(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    for kind, dim, spec, _, step in _models(cfg):
        csv_text = experiments.flow_csv(spec, step, cfg.t_max, cfg.target_c)
        name = _spectrum_name("flow", kind, dim, cfg.double)
        write_atomic(os.path.join(cfg.out, name + ".csv"), csv_text, manifest)
    return EXIT_OK


def cmd_protocol(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    for kind, dim, spec, _, step in _models(cfg):
        payload = protocol_output_to_json(apply_protocol(uniform_state(spec.dim), spec, step))
        payload["model"] = kind
        payload["dim"] = dim
        name = _spectrum_name("protocol", kind, dim, cfg.double)
        write_atomic(os.path.join(cfg.out, name + ".json"),
                     json.dumps(payload) + "\n", manifest)
    return EXIT_OK


def cmd_schedule(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    runs = {f"schedule_m{m}.json": partial(improved_run, m) for m in cfg.m_list}
    pairs = sum(improved_pair_count(m) for m in cfg.m_list)
    if cfg.tournament is not None:
        runs[f"schedule_tournament_n{cfg.tournament}.json"] = partial(tournament_run,
                                                                       cfg.tournament)
        pairs += 2 ** cfg.tournament - 1
    if pairs > SCHEDULE_MAX_PAIRS:
        raise ValueError(f"the schedules hold {pairs} pair events in all, over the cap of "
                         f"{SCHEDULE_MAX_PAIRS} per run")
    for name, make in runs.items():
        # each run is checked step by step as it is written and never stored
        run = make()
        with atomic_output(os.path.join(cfg.out, name), manifest) as write:
            n_pairs = schedule_to_json(run, write)
            write(b"\n")
        manifest.counts[name] = {"pair_events": n_pairs, "step_star": run.step_star}
    return EXIT_OK


def cmd_coeffs(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    data = experiments.coeffs_dataset(cfg.m_list)
    for m, kmat in sorted(data.matrices.items()):
        write_atomic(os.path.join(cfg.out, f"K_m{m}.csv"), kmat.to_csv(), manifest)
        with atomic_output(os.path.join(cfg.out, f"K_m{m}.json"), manifest) as write:
            coefficients_to_json(kmat, write)
            write(b"\n")
    for name, csv_text in sorted(data.cuts.items()):
        write_atomic(os.path.join(cfg.out, f"{name}.csv"), csv_text, manifest)
    write_atomic(os.path.join(cfg.out, "step_star.csv"), data.step_star_csv(), manifest)
    summary = {"reports": [r.to_json() for r in data.reports]}
    write_atomic(os.path.join(cfg.out, "scaling_summary.json"),
                 json.dumps(summary, indent=1, sort_keys=True) + "\n", manifest)
    return EXIT_OK


def cmd_xi(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    path = cfg.k_base or os.path.join(cfg.out, f"K_m{experiments.XI_BASE_M}.json")
    if not os.path.exists(path):
        raise ValueError(f"coefficient base {path} not found; run `swapcool coeffs` first")
    with open(path) as fh:
        base = coefficients_from_json(json.load(fh))
    manifest.config["k_base"] = os.path.basename(path)     # the file actually read
    rows = experiments.xi_sweep(_models(cfg), cfg.alphas, base)
    write_atomic(os.path.join(cfg.out, "xi.csv"), experiments.xi_rows_to_csv(rows), manifest)
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace, manifest: RunManifest) -> int:
    results = verify.run_verify(seed=cfg.seed, full=cfg.full)
    report = verify.report_to_json(results)
    write_atomic(os.path.join(cfg.out, "verify_report.json"),
                 json.dumps(report, indent=1, sort_keys=True) + "\n", manifest)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}")
    if not report["passed"]:
        failing = [r.name for r in results if not r.passed]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


@dataclass(frozen=True)
class Command:
    """A subcommand's help line, the settings it reads, its manifest stage,
    its handler and its own defaults for some of the settings.  The handler
    takes (cfg, manifest) and returns the exit code."""

    help: str
    settings: tuple[str, ...]
    stage: str
    run: Callable[[argparse.Namespace, RunManifest], int]
    defaults: dict = field(default_factory=dict)


# the settings of every subcommand that builds model spectra
SPECTRA = ("model", "dims", "delta", "double", "out")

COMMANDS = {
    "spectrum": Command("emit model spectra (text + JSON)", SPECTRA, "spectra", cmd_spectrum),
    "flow": Command("ground-population trajectories with bounds",
                    SPECTRA + ("dt", "t_max", "target_c"), "flow", cmd_flow),
    "protocol": Command("single protocol application as JSON", SPECTRA + ("dt",),
                        "protocol", cmd_protocol),
    "schedule": Command("pairing schedules as JSON", ("m_list", "tournament", "out"),
                        "schedules", cmd_schedule, {"m_list": "1,2,4"}),
    "coeffs": Command("coefficient matrices and scaling study", ("m_list", "out"),
                      "coefficients", cmd_coeffs),
    "xi": Command("network-error diagnostic sweep", SPECTRA + ("dt", "alphas", "k_base"),
                  "xi", cmd_xi),
    "verify": Command("oracle and invariant suites", ("seed", "full", "out"), "verify",
                      cmd_verify),
}

# every key some subcommand reads, so one config file can drive the pipeline
CONFIG_KEYS = frozenset(name for command in COMMANDS.values() for name in command.settings)


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key=value config file (flags win)")
        for key in command.settings:
            setting = SETTINGS[key]
            if setting.switch:
                p.add_argument(setting.flag, dest=key, action="store_const", const="true",
                               help=setting.help)
                continue
            default = command.defaults.get(key, setting.default)
            p.add_argument(setting.flag, dest=key, help=setting.help if default is None
                           else f"{setting.help} (default {default})")
    return parser


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Each setting the subcommand reads, from its flag, else the config file,
    else the default, through the setting's parser."""
    file_vals = load_config_file(args.config) if args.config else {}
    command = COMMANDS[args.command]
    cfg = argparse.Namespace()
    for key in command.settings:
        text = getattr(args, key)
        if text is None:
            text = file_vals.get(key, command.defaults.get(key, SETTINGS[key].default))
        try:
            setattr(cfg, key, None if text is None else SETTINGS[key].parse(text))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    # probe every spectrum up front so commands never leave partial outputs
    # behind on invalid input; flow also checks the time grid of each spectrum
    # it runs on (its default t_max needs target_c inside the t_c window)
    if "model" in command.settings:
        for _, _, spec, _, step in _models(cfg):
            if "t_max" in command.settings:
                experiments.flow_steps(spec, step, cfg.t_max, cfg.target_c)
    return cfg


def main(argv=None) -> int:
    """Parse, resolve the settings, run the subcommand's handler as its
    manifest stage and write the manifest; bad input exits 2 with no manifest."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = resolve_config(args)
        manifest_path = os.path.join(cfg.out, "manifest.json")
        manifest = RunManifest(config=dict(vars(cfg), command=args.command),
                               version=__version__,
                               earlier=experiments.recorded_runs(manifest_path))
        t0 = time.perf_counter()
        code = command.run(cfg, manifest)
        manifest.add_stage(command.stage, time.perf_counter() - t0)
        write_atomic(manifest_path,
                     json.dumps(manifest.to_json(), indent=1, sort_keys=True) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
