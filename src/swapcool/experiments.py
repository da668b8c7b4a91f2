"""Experiment orchestration: the sweep datasets behind the flow curves, the
coefficient scaling study and the network-error diagnostic, plus manifest
bookkeeping.

Every emitter is a pure function from a config to text, so outputs are
byte-reproducible; the CLI writes each file through atomic_output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .hamiltonian import Spectrum, build_model, double, min_m_bound, spectral_stats
from .flow import flow_series, t_c_bounds
from .network import (
    CoefficientMatrix,
    check_scaling_law,
    propagate_coefficients,
    rescaled_frame,
    scaling_cut_positions,
    xi_result,
)
from .quantum import csv_table, energy_moments, uniform_state

DEFAULT_DT_FACTOR = 0.01     # protocol step in units of the inverse gap
XI_BASE_M = 128
FLOW_MAX_POINTS = 2 ** 18    # rows of one flow CSV; dim 4096 at the default grid has 2 584


def model_sweep(models, dims, delta: float, use_double: bool = False,
                dt: float | None = None):
    """(kind, dim, spectrum, its stats, step) per model and dim: the spectrum
    doubled when asked, the step dt or else DEFAULT_DT_FACTOR / gap."""
    for kind in models:
        for dim in dims:
            spec = build_model(kind, dim, delta)
            if use_double:
                spec = double(spec)
            stats = spectral_stats(spec)
            yield kind, dim, spec, stats, DEFAULT_DT_FACTOR / stats.gap if dt is None else dt


# --- flow dataset -------------------------------------------------------------

def flow_steps(spec: Spectrum, step: float, t_max: float | None, target_c: float) -> int:
    """Steps of the uniform time grid reaching t_max, by default twice the
    upper end of the t_c window of target_c.  ValueError when target_c lies
    outside [ground population of the uniform start, 1) or the grid would hold
    more than FLOW_MAX_POINTS rows."""
    if t_max is None:
        stats = spectral_stats(spec)
        _, upper = t_c_bounds(spec.dim, stats.gap, stats.span, target_c,
                              stats.ground_degeneracy)
        t_max = 2.0 * upper
    span = t_max / step
    if not span <= FLOW_MAX_POINTS - 1:
        raise ValueError(f"flow grid t_max / dt = {t_max!r} / {step!r} needs more than "
                         f"{FLOW_MAX_POINTS} rows")
    return int(np.ceil(span))


def flow_csv(spec: Spectrum, step: float, t_max: float | None = None,
             target_c: float = 0.99) -> str:
    """One trajectory CSV from the uniform start on the grid of flow_steps."""
    times = step * np.arange(flow_steps(spec, step, t_max, target_c) + 1)
    return flow_series(uniform_state(spec.dim), spec, times).to_csv()


# --- coefficient dataset ------------------------------------------------------

@dataclass
class CoeffsDataset:
    matrices: dict                  # m -> CoefficientMatrix
    step_stars: dict                # m -> step_star
    reports: list                   # ScalingReport per (m_small, m_large)
    cuts: dict                      # cut name -> csv text

    def step_star_csv(self) -> str:
        return csv_table(("m", "step_star", "step_star_over_m2"),
                         ((m, s, s / m ** 2) for m, s in sorted(self.step_stars.items())))


def _cut_csvs(m0: int, frames: dict[int, np.ndarray]) -> dict[str, str]:
    """The eight standard cuts in the frame of m0, one column per m of the
    frames, in their order (each matrix read in that frame by rescaled_frame)."""
    rows, columns = scaling_cut_positions(m0)
    cuts = [(f"cut_row{i}_j{j0}", "kprime", [float(kp) for kp in range(-m0, m0 + 1)],
             [f[j0 - 1] for f in frames.values()]) for i, j0 in enumerate(rows, start=1)]
    cuts += [(f"cut_col{i}_k{kp0}", "j", range(1, 2 * m0 + 1),
              [f[:, kp0 + m0] for f in frames.values()]) for i, kp0 in enumerate(columns, start=1)]
    names = [f"m{m}" for m in frames]
    return {name: csv_table([label, *names], zip(labels, *(v.tolist() for v in values)))
            for name, label, labels, values in cuts}


def coeffs_dataset(m_list) -> CoeffsDataset:
    """K and step* for every m; the scaling reports and the cut files both
    compare the multiples of the smallest m, in its frame."""
    m_list = sorted(m_list)
    runs = [kernels.ImprovedSteps(m) for m in m_list]
    matrices = {run.m: propagate_coefficients(run) for run in runs}
    step_stars = {run.m: run.step_star for run in runs}
    m0 = m_list[0]
    compared = [m for m in m_list if m % m0 == 0]
    reports = [check_scaling_law(matrices[m0], matrices[m]) for m in compared[1:]]
    frames = {m: rescaled_frame(matrices[m], m0) for m in compared}
    return CoeffsDataset(matrices, step_stars, reports, _cut_csvs(m0, frames))


# --- network-error diagnostic (xi) sweep ---------------------------------------

@dataclass
class XiRow:
    model: str
    dim: int
    alpha: int
    m_alpha: int
    xi: float
    m_bound: float
    constraint_violated: bool
    reference_only: bool


def xi_sweep(sweep, alphas, k_base: CoefficientMatrix) -> list[XiRow]:
    """The xi diagnostic per (model, dim, alpha) of a model_sweep, coefficients
    rescaled from the base matrix.  Model (a) rows are reference-only; every
    row carries the total-energy bound check on its m_alpha."""
    rows = []
    for kind, dim, spec, _, step in sweep:
        phi0 = uniform_state(spec.dim)
        e0, _ = energy_moments(phi0, spec)
        bound = min_m_bound(spec, e0)
        for alpha in alphas:
            point = xi_result(spec, phi0, step, alpha, k_base)
            rows.append(XiRow(kind, dim, alpha, point.m_alpha, point.xi,
                              bound, point.m_alpha <= bound, kind == "a"))
    return rows


def xi_rows_to_csv(rows: list[XiRow]) -> str:
    flag = lambda value: "true" if value else "false"
    return csv_table([f.name for f in fields(XiRow)], (
        (r.model, r.dim, r.alpha, r.m_alpha, float(r.xi), float(r.m_bound),
         flag(r.constraint_violated), flag(r.reference_only)) for r in rows))


def base_coefficient_matrix(m: int = XI_BASE_M) -> CoefficientMatrix:
    return propagate_coefficients(kernels.ImprovedSteps(m))


# --- manifest & atomic output ---------------------------------------------------

def run_environment() -> dict:
    """What a run ran on: interpreter, numpy, core count and kernel backend."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "kernel_backend": kernels.BACKEND}


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MB (ru_maxrss
    counts KiB on Linux, bytes on macOS)."""
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6


RUN_KEYS = ("config", "version", "environment", "stages", "files")


@dataclass
class RunManifest:
    """One run's record, plus the earlier runs into the same directory that
    it carries forward (see to_json)."""

    config: dict
    version: str
    environment: dict = field(default_factory=run_environment)
    stages: list = field(default_factory=list)
    files: list = field(default_factory=list)
    earlier: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)    # file name -> counts, for the next stage

    def add_stage(self, name: str, seconds: float) -> None:
        """Record a stage with its peak RSS and the counts noted since the last one."""
        stage = {"name": name, "seconds": seconds, "peak_rss_mb": peak_rss_mb()}
        if self.counts:
            stage["counts"], self.counts = self.counts, {}
        self.stages.append(stage)

    def add_file(self, path: str, sha256: str, size: int) -> None:
        self.files.append({"path": path, "sha256": sha256, "bytes": size})

    def to_json(self) -> dict:
        """This run at the top level; under "earlier_runs" the earlier runs
        of other commands, oldest first (no two commands write a file of the
        same name).  A rerun of a command replaces its own entry."""
        command = self.config.get("command")
        earlier = [run for run in self.earlier if run["config"].get("command") != command]
        return {"config": self.config, "version": self.version,
                "environment": self.environment, "stages": self.stages, "files": self.files,
                "earlier_runs": earlier}


def recorded_runs(path: str) -> list:
    """The runs the manifest at path records, oldest first; [] when there is
    none.  ValueError when the file is not a manifest."""
    try:
        with open(path) as fh:
            man = json.load(fh)
    except FileNotFoundError:
        return []
    except ValueError as exc:
        raise ValueError(f"{path} is not a manifest: {exc}") from None
    earlier = man.get("earlier_runs", []) if isinstance(man, dict) else None
    if not isinstance(earlier, list) or not set(RUN_KEYS) <= man.keys():
        raise ValueError(f"{path} is not a manifest: it needs the keys {', '.join(RUN_KEYS)}")
    runs = earlier + [{key: man[key] for key in RUN_KEYS}]
    if not all(isinstance(run, dict) and isinstance(run.get("config"), dict) for run in runs):
        raise ValueError(f"{path} is not a manifest: every run needs a config object")
    return runs


@contextlib.contextmanager
def atomic_output(path: str, manifest: RunManifest | None = None):
    """Yield write(bytes), which appends to a temporary file beside path.  On
    a clean exit the file replaces path and the manifest records its sha256
    and size; on an exception it is removed, and path and the manifest are
    left as they were."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    digest, size = hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as fh:
            def write(data) -> None:
                nonlocal size
                digest.update(data)
                size += fh.write(data)
            yield write
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    if manifest is not None:
        manifest.add_file(os.path.basename(path), digest.hexdigest(), size)


def write_atomic(path: str, content: str | bytes, manifest: RunManifest | None = None) -> None:
    with atomic_output(path, manifest) as write:
        write(content.encode() if isinstance(content, str) else content)
