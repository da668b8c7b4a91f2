"""The three benchmark workloads.

Each workload has three parts:

* ``prepare(work_dir)`` is the set-up: it builds the inputs and returns a
  state object.  It is timed and repeated; it is never traced.
* ``run(state, out_dir, span)`` is one measured iteration.  It drives the
  package only through ``swapcool.cli.main`` and public module functions,
  looked up on the module at call time so that the tracer's wrappers see
  every call; ``span(name)`` opens a harness span around a group of calls.
  It returns the in-memory results the check needs.
* ``check(state, out_dir, results, ref)`` compares the outputs with the reference
  recorded at the seed commit (``oracle`` checks against its own dense
  oracles instead) and returns a :class:`reference.Report` plus the
  byte-identity information.

``coeffs_xi_flow`` and ``schedule`` are fixed paper sweeps and ignore the
seed; ``oracle`` draws all its inputs from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

import numpy as np

import reference
from reference import Report, compare

from swapcool import cli, flow, network, protocol, quantum, verify
from swapcool.hamiltonian import Spectrum
from swapcool.quantum import PureState


@dataclass(frozen=True)
class Profile:
    """Problem sizes; ``full`` is the benchmark, ``tiny`` the self-test."""

    name: str
    coeffs_args: tuple           # extra `swapcool coeffs` flags; () keeps the defaults
    schedule_m: int
    sweep_m_max: int
    flow_models: str
    flow_dims: str
    xi_alphas: str
    xi_base_m: int
    oracle_trials: int
    oracle_protocol_dim: int
    oracle_protocol_dts: int
    oracle_networks: tuple       # (m, levels): joint dim levels^(2m)
    oracle_flow_dims: tuple
    oracle_flow_points: int
    oracle_eig_dim: int


FULL = Profile("full", (), 128, 96, "a,b,c,d", "8..4096", "1,2,3,4", 128,
               1000, 32, 4, ((3, 3), (4, 2)), (256, 512, 1024, 2048), 1000, 512)
TINY = Profile("tiny", ("--m", "2,4,8"), 8, 8, "a,b,c,d", "8..16", "1,2,3,4", 8,
               20, 8, 2, ((2, 2),), (16, 32), 100, 16)
PROFILES = {p.name: p for p in (FULL, TINY)}


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"`swapcool {' '.join(argv)}` exited with code {code}")


class FixedSweep:
    """A paper sweep checked against the reference recorded at the seed commit."""

    def __init__(self, profile: Profile, seed: int):
        self.profile = profile

    def prepare(self, work_dir: str):
        return None

    def outputs(self, out_dir: str, results) -> dict:
        raise NotImplementedError

    @staticmethod
    def rule(path: str):
        """(relative, absolute) tolerance for a path, None for the default."""
        return None

    def check(self, state, out_dir: str, results, ref: dict):
        report = Report()
        got = self.outputs(out_dir, results)
        compare(ref["outputs"], got, report, rule=self.rule)
        return report, reference.byte_identity(ref["sha256"], reference.file_digests(out_dir))


# --- coeffs_xi_flow ------------------------------------------------------------------

def _coeffs_outputs(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name == "manifest.json":
            continue
        if name.startswith("K_m") and name.endswith(".csv"):
            # the CSV must carry exactly the JSON matrix; the JSON is compared
            table = reference.read_csv(path)
            kmat = reference.read_json(path[:-4] + ".json")["k"]
            cols = [table["columns"][h] for h in table["header"][1:]]
            rows = [list(r) for r in zip(*cols)]
            out[name] = {"equals_json": rows == kmat, "rows": len(rows)}
        elif name.endswith(".csv"):
            out[name] = reference.read_csv(path)
        else:
            out[name] = reference.read_json(path)
    return out


class CoeffsXiFlow(FixedSweep):
    """The paper's dataset pipeline: `swapcool coeffs` at its defaults, then
    `swapcool xi` rescaling the K_m128 that coeffs wrote, then `swapcool flow`
    over the same models and dims."""

    name = "coeffs_xi_flow"

    @staticmethod
    def rule(path: str):
        # xi keeps the rule of the packaged xi baselines: 1e-9 relative or 1e-12 absolute
        return (1e-9, 1e-12) if path.startswith("/xi/xi.csv/columns/xi[") else None

    def run(self, state, out_dir: str, span):
        p = self.profile
        coeffs_dir = os.path.join(out_dir, "coeffs")
        run_cli(["coeffs", *p.coeffs_args, "--out", coeffs_dir])
        run_cli(["xi", "--model", p.flow_models, "--dims", p.flow_dims, "--alphas", p.xi_alphas,
                 "--k-base", os.path.join(coeffs_dir, f"K_m{p.xi_base_m}.json"),
                 "--out", os.path.join(out_dir, "xi")])
        run_cli(["flow", "--model", p.flow_models, "--dims", p.flow_dims,
                 "--out", os.path.join(out_dir, "flow")])
        return None

    def outputs(self, out_dir: str, results) -> dict:
        out = {f"coeffs/{name}": value
               for name, value in _coeffs_outputs(os.path.join(out_dir, "coeffs")).items()}
        for sub in ("xi", "flow"):
            for name in sorted(os.listdir(os.path.join(out_dir, sub))):
                path = os.path.join(out_dir, sub, name)
                if name == "manifest.json":
                    continue
                out[f"{sub}/{name}"] = (reference.sample_csv(path) if sub == "flow"
                                        else reference.read_csv(path))
        return out


# --- schedule ----------------------------------------------------------------------

def _event_digest(pairs: list[dict]) -> tuple[str, list[int]]:
    arr = np.array([[p["step"], p["pair"][0], p["pair"][1], p["tau"], int(p["fresh"])]
                    for p in pairs], dtype="<i8").reshape(-1, 5)
    per_step = np.bincount(arr[:, 0]).tolist() if arr.size else []
    return hashlib.sha256(arr.tobytes()).hexdigest(), per_step


def terminal_profile(m: int) -> list[int]:
    """-m..-1 then 1..m: the closed-form end state of the improved network."""
    return list(range(-m, 0)) + list(range(1, m + 1))


class Schedule(FixedSweep):
    """`swapcool schedule --m M` (materialise, validate, write JSON with the
    tau table), then the counts-only sweep improved_schedule_stats(1..M')."""

    name = "schedule"

    def run(self, state, out_dir: str, span):
        run_cli(["schedule", "--m", str(self.profile.schedule_m), "--out", out_dir])
        with span("network.stats_sweep"):
            return [network.improved_schedule_stats(m)
                    for m in range(1, self.profile.sweep_m_max + 1)]

    def outputs(self, out_dir: str, results) -> dict:
        out = {}
        for name in sorted(os.listdir(out_dir)):
            if name == "manifest.json":
                continue
            obj = reference.read_json(os.path.join(out_dir, name))
            digest, per_step = _event_digest(obj["pairs"])
            # the tau table is left out on purpose: a later change may drop it
            out[name] = {"kind": obj["kind"], "m": obj["m"], "n_systems": obj["n_systems"],
                         "step_star": obj["step_star"], "n_pairs": len(obj["pairs"]),
                         "pairs_per_step": per_step, "events_sha256": digest,
                         "terminal_tau": obj["terminal_tau"]}
        out["stats_sweep"] = {
            "step_star": [int(s) for s, _ in results],
            "terminal_mismatch_m": [m for m, (_, term) in enumerate(results, start=1)
                                    if [int(x) for x in term] != terminal_profile(m)],
        }
        return out


# --- oracle ------------------------------------------------------------------------

PROTOCOL_TOL = 1e-12          # closed form vs dense unitary, max entry deviation
FLOW_RK4_TOL = 1e-8           # flow_series vs RK4 at h = 0.01, populations and energy
FLOW_T_MAX = 20.0
FLOW_RK4_STEP = 0.01
NETWORK_DT = 0.05
EIG_TOL = 1e-10


def _random_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def _random_spectrum(rng: np.random.Generator, dim: int, scale: float) -> Spectrum:
    while True:
        ev = np.sort(rng.uniform(-scale, scale, size=dim))
        if np.all(np.diff(ev) > 1e-9):       # every level distinct
            return Spectrum(ev, label="random")


@dataclass
class OracleInputs:
    protocol_case: tuple
    networks: list
    flows: list
    hermitian: np.ndarray


class Oracle:
    """Seeded inputs through the dense oracles: the verify protocol check,
    closed form vs oracle, the exact joint-density network oracle, flow_series
    on fully distinct spectra against RK4, and one dense eigendecomposition."""

    name = "oracle"

    def __init__(self, profile: Profile, seed: int):
        self.profile = profile
        self.seed = seed

    def prepare(self, work_dir: str):
        p = self.profile
        rng = np.random.default_rng(self.seed)
        dim = p.oracle_protocol_dim
        protocol_case = (_random_spectrum(rng, dim, 2.0), _random_state(rng, dim),
                         rng.uniform(-1.0, 1.0, size=p.oracle_protocol_dts))
        networks = []
        for m, levels in p.oracle_networks:
            sched = network.build_improved_schedule(m)
            networks.append((sched, _random_spectrum(rng, levels, 1.0),
                             _random_state(rng, levels)))
        flows = []
        times = np.linspace(0.0, FLOW_T_MAX, p.oracle_flow_points)
        for d in p.oracle_flow_dims:
            flows.append((_random_spectrum(rng, d, 1.0), _random_state(rng, d), times))
        a = rng.normal(size=(p.oracle_eig_dim,) * 2) + 1j * rng.normal(size=(p.oracle_eig_dim,) * 2)
        return OracleInputs(protocol_case, networks, flows, 0.5 * (a + a.conj().T))

    def run(self, state: OracleInputs, out_dir: str, span):
        results = {"verify": verify.check_protocol_vs_oracle(seed=self.seed,
                                                             trials=self.profile.oracle_trials)}
        spec, phi, dts = state.protocol_case
        results["protocol"] = [(protocol.apply_protocol(phi, spec, dt),
                                protocol.protocol_oracle(phi, spec, dt)) for dt in dts]
        results["networks"] = [network.simulate_network_exact(sched, spec, phi0, NETWORK_DT)
                               for sched, spec, phi0 in state.networks]
        results["flows"] = []
        for spec, phi0, times in state.flows:
            series = flow.flow_series(phi0, spec, times)
            picks = (len(times) // 4, len(times) // 2, len(times) - 1)
            rk4 = [flow.flow_rk4(phi0, spec, times[i], FLOW_RK4_STEP) for i in picks]
            results["flows"].append((series, picks, rk4))
        results["eig"] = quantum.eigendecompose(state.hermitian)
        return results

    def check(self, state: OracleInputs, out_dir: str, results, ref):
        report = Report()
        res = results["verify"]
        if not res.passed:
            report.fail(f"/verify/protocol_vs_oracle: failed with {res.details}")
        report.bound("/verify/protocol_vs_oracle/max_deviation",
                     res.details["max_deviation"], res.details["tolerance"])

        dev = 0.0
        for closed, dense in results["protocol"]:
            dev = max(dev,
                      float(np.abs(closed.rho_a.to_dense().matrix - dense.rho_a.matrix).max()),
                      float(np.abs(closed.rho_b.to_dense().matrix - dense.rho_b.matrix).max()),
                      abs(closed.e_a - dense.e_a), abs(closed.e_b - dense.e_b))
        report.bound(f"/protocol/dim{state.protocol_case[0].dim}/max_deviation", dev, PROTOCOL_TOL)

        for (sched, spec, phi0), reduced in zip(state.networks, results["networks"]):
            # total energy is asserted inside the oracle; here every terminal state
            # must be a density operator, and the first step, where all pairs are
            # fresh product states, must reproduce the closed form exactly
            for j, rho in enumerate(reduced, start=1):
                if rho.min_eigenvalue() < -1e-10:
                    report.fail(f"/network/m{sched.m}/system{j}: negative eigenvalue "
                                f"{rho.min_eigenvalue()!r}")
            first = sched.step == 0
            step0 = dataclasses.replace(sched, step_star=1, step=sched.step[first],
                                        lo=sched.lo[first], hi=sched.hi[first],
                                        tau_common=sched.tau_common[first],
                                        fresh=sched.fresh[first])
            after = network.simulate_network_exact(step0, spec, phi0, NETWORK_DT)
            closed = protocol.apply_protocol(phi0, spec, NETWORK_DT)
            cooled, heated = closed.rho_a.to_dense().matrix, closed.rho_b.to_dense().matrix
            dev = max(max(float(np.abs(after[hi].matrix - cooled).max()),
                          float(np.abs(after[lo].matrix - heated).max()))
                      for lo, hi in zip(step0.lo, step0.hi))
            report.bound(f"/network/m{sched.m}_levels{spec.dim}/first_step_vs_closed_form",
                         dev, PROTOCOL_TOL)

        for (spec, phi0, times), (series, picks, rk4) in zip(state.flows, results["flows"]):
            dev = 0.0
            for i, st in zip(picks, rk4):
                p1, pg = flow.ground_probability(st, spec)
                energy, _ = quantum.energy_moments(st, spec)
                dev = max(dev, abs(p1 - series.p1[i]), abs(pg - series.p_ground[i]),
                          abs(energy - series.energy[i]))
            report.bound(f"/flow/dim{spec.dim}/series_vs_rk4", dev, FLOW_RK4_TOL)

        spec, u = results["eig"]
        h = state.hermitian
        scale = float(np.abs(h).max())
        recon = float(np.abs((u * spec.eigenvalues) @ u.conj().T - h).max()) / scale
        unitary = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
        report.bound(f"/eig/dim{h.shape[0]}/reconstruction", recon, EIG_TOL)
        report.bound(f"/eig/dim{h.shape[0]}/unitarity", unitary, EIG_TOL)
        return report, None


WORKLOADS = {w.name: w for w in (CoeffsXiFlow, Schedule, Oracle)}
