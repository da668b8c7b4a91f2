"""The two-system energy-transfer protocol.

Two copies of the same state are phase-evolved in opposite time directions
(forward e^{-iHt/2}, backward e^{+iHt/2}) and then mixed by the swap rotation
exp(+i S pi/4).  The interference between the two branches transfers energy
one way: the reduced state on side a is cooled by half the slope of the
survival probability, side b heated by the same amount, so the pair total is
conserved exactly.

Closed forms here are cross-checked against :func:`protocol_oracle`, which
builds the dense two-system unitary with no shared algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import level_flow
from .hamiltonian import Spectrum, spectral_stats
from .quantum import (
    DensityOperator,
    LowRankDensity,
    PureState,
    _check_dims,
    _interleave,
    energy_moments,
    evolve_phase,
    state_to_json,
    survival,
)

ORACLE_DIM_CAP = 64


@dataclass(frozen=True)
class ProtocolOutput:
    """Reduced states and energies produced by one protocol application."""

    rho_a: LowRankDensity | DensityOperator
    rho_b: LowRankDensity | DensityOperator
    e_a: float
    e_b: float
    e0: float
    dt: float


def deviation_term(spec: Spectrum, phi: PureState) -> np.ndarray:
    """Second-order deviation D[phi] = {Gamma, P} - 2<Gamma> P with
    Gamma = (H - <H>)^2 / 4, as a dense matrix in the eigenbasis.

    Traceless and Hermitian; the unit of error the network accumulates.  The
    dense reference for :meth:`swapcool.flow.LevelFlow.deviation`."""
    _check_dims(phi, spec)
    e, _ = energy_moments(phi, spec)
    gamma = 0.25 * (spec.eigenvalues - e) ** 2
    mean = float(np.abs(phi.amplitudes) ** 2 @ gamma)
    p = phi.projector()
    return gamma[:, None] * p + p * gamma[None, :] - 2.0 * mean * p


def apply_protocol(phi0: PureState, spec: Spectrum, dt: float) -> ProtocolOutput:
    """Exact reduced states and transferred energies, in rank-2 form.

    With F = e^{-iH dt/2} phi0, B = e^{+iH dt/2} phi0 and A = <B|F>:

        rho_a = (|F><F| + |B><B|)/2 + (i/2) A |B><F| - (i/2) A* |F><B|

    and rho_b with the interference signs flipped.  Energies come from the
    analytic slope of the survival probability, E_{a,b} = E0 +- P0'(dt)/2,
    so conservation holds to round-off.  Negative dt swaps the two roles.
    """
    _check_dims(phi0, spec)
    fwd = evolve_phase(phi0, spec, dt / 2.0, sign=+1)
    bwd = evolve_phase(phi0, spec, dt / 2.0, sign=-1)
    amp = bwd.overlap(fwd)
    half_i_amp = 0.5j * amp
    # conj(i A / 2) = -i conj(A) / 2 is exactly the |F><B| coefficient
    coeff_a = np.array([[0.5, np.conj(half_i_amp)], [half_i_amp, 0.5]])
    coeff_b = np.array([[0.5, -np.conj(half_i_amp)], [-half_i_amp, 0.5]])
    rho_a = LowRankDensity(basis=(fwd, bwd), coeff=coeff_a)
    rho_b = LowRankDensity(basis=(fwd, bwd), coeff=coeff_b)
    e0, _ = energy_moments(phi0, spec)
    _, dp0 = survival(phi0, spec, dt)
    return ProtocolOutput(rho_a, rho_b, e0 + 0.5 * dp0, e0 - 0.5 * dp0, e0, dt)


def protocol_unitary(spec: Spectrum, dt: float) -> np.ndarray:
    """Dense two-system unitary exp(+i S pi/4) (e^{-iH dt/2} (x) e^{+iH dt/2}).

    The swap rotation uses S^2 = I: exp(+i S pi/4) = (I + iS)/sqrt(2), with
    S |j,k> = |k,j>.  Column c = (j, k) therefore holds phase_c/sqrt(2) on the
    diagonal and i phase_c/sqrt(2) at the swapped row (k, j); where j = k the
    two meet, as (1 + i) phase_c/sqrt(2).  Each entry is one complex product
    of its rotation factor and phase_c.
    """
    dim = spec.dim
    fwd = np.exp(-0.5j * spec.eigenvalues * dt)
    phase = np.kron(fwd, fwd.conj())
    c = 1.0 / np.sqrt(2.0)
    cols = np.arange(dim * dim)
    j, k = np.divmod(cols, dim)
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    u[k * dim + j, cols] = 1j * c * phase
    u[cols, cols] = np.where(j == k, 1 + 1j, 1) * c * phase
    return u


def protocol_oracle(phi0: PureState, spec: Spectrum, dt: float) -> ProtocolOutput:
    """Brute-force the protocol on the dense joint space.

    Independent of :func:`apply_protocol`: applies the explicit unitary of the
    two-system circuit to the joint vector, reshapes it to the dim x dim
    matrix Psi[j, k] and reduces each side, rho_a = Psi Psi^dagger and
    rho_b = Psi^T conj(Psi).  The unitary is the only dim^2 x dim^2 array;
    capped at dim <= 64 (a 4096-dimensional joint space, 268 MB unitary).
    """
    _check_dims(phi0, spec)
    if spec.dim > ORACLE_DIM_CAP:
        raise ValueError(f"dense oracle capped at dim {ORACLE_DIM_CAP}")
    joint_in = np.kron(phi0.amplitudes, phi0.amplitudes)
    psi = (protocol_unitary(spec, dt) @ joint_in).reshape(spec.dim, spec.dim)
    rho_a = DensityOperator(psi @ psi.conj().T)
    rho_b = DensityOperator(psi.T @ psi.conj())
    e0, _ = energy_moments(phi0, spec)
    return ProtocolOutput(rho_a, rho_b, rho_a.energy(spec), rho_b.energy(spec), e0, dt)


def expand_short_time(phi0: PureState, spec: Spectrum, dt: float) -> tuple[DensityOperator, DensityOperator]:
    """Second-order predictions for the reduced states.

    rho_{a,b} ~ |phi_{+-dt}><phi_{+-dt}| - dt^2 D[phi0] where phi_{+-dt} is
    the exact cooling-flow state and D the traceless deviation term, accurate
    to O(dt^3).  The dt^2 operator here is the trace-preserving variant
    ({H^2,P} - 2 HPH in expanded form), the one that matches the dense
    oracle (see :mod:`swapcool.verify`); both are evaluated on the levels.
    """
    span = spectral_stats(spec).span
    if abs(dt) * span > 0.5:
        raise ValueError("dt outside the short-time expansion regime")
    lf = level_flow(phi0, spec)
    dev = dt * dt * lf.deviation([0.0], [1.0])
    rho_a, rho_b = (DensityOperator(lf.to_eigenbasis(np.outer(a, a) - dev))
                    for a in np.sqrt(lf.populations([dt, -dt])))
    return rho_a, rho_b


def transfer_first_order(phi0: PureState, spec: Spectrum, dt: float) -> tuple[float, float]:
    """Leading-order transferred energies E0 -+ var*dt (remainder O(dt^3))."""
    e0, var = energy_moments(phi0, spec)
    return e0 - var * dt, e0 + var * dt


def protocol_output_to_json(out: ProtocolOutput) -> dict:
    if not isinstance(out.rho_a, LowRankDensity):
        raise TypeError("JSON form is defined for rank-2 protocol output")
    return {
        "E0": out.e0,
        "Ea": out.e_a,
        "Eb": out.e_b,
        "dt": out.dt,
        "basis": [state_to_json(v) for v in out.rho_a.basis],
        "coeff_a": _interleave(out.rho_a.coeff),
        "coeff_b": _interleave(out.rho_b.coeff),
    }
