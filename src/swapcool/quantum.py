"""State vectors and density operators in the energy eigenbasis.

Pure phase evolution, energy moments, survival probability and
eigendecomposition: the linear-algebra substrate for the protocol, flow
and network modules.  Everything here is a pure function over immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import Spectrum

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector, unit norm, in the energy eigenbasis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def projector(self) -> np.ndarray:
        a = self.amplitudes
        return np.outer(a, a.conj())

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian unit-trace matrix.

    Hermiticity and trace are validated on construction; positivity is the
    caller's concern (check :meth:`min_eigenvalue` where it matters, the
    eigensolve is too costly to run on every intermediate).
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace {tr} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def energy(self, spec: Spectrum) -> float:
        if spec.dim != self.dim:
            raise ValueError("dimension mismatch")
        return float(np.real(np.diag(self.matrix) @ spec.eigenvalues))


@dataclass(frozen=True)
class LowRankDensity:
    """Density operator written as sum_pq coeff[p,q] |v_p><v_q| over <=2 states.

    The protocol's reduced states live in the span of the forward and backward
    evolved vectors; keeping them in this form makes the closed-form path
    O(dim) instead of O(dim^2).
    """

    basis: tuple
    coeff: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.basis) <= 2:
            raise ValueError("basis must hold 1 or 2 states")
        co = np.asarray(self.coeff, dtype=complex)
        r = len(self.basis)
        if co.shape != (r, r):
            raise ValueError("coefficient matrix shape must match basis size")
        if np.abs(co - co.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("coefficient matrix must be Hermitian")
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "coeff", co)

    @property
    def dim(self) -> int:
        return self.basis[0].dim

    def to_dense(self) -> DensityOperator:
        """The dense matrix V C V^dagger, V's columns the basis states."""
        v = np.column_stack([b.amplitudes for b in self.basis])
        return DensityOperator(v @ self.coeff @ v.conj().T)


def _check_dims(state: PureState, spec: Spectrum) -> None:
    if state.dim != spec.dim:
        raise ValueError(f"state dim {state.dim} != spectrum dim {spec.dim}")


def uniform_state(dim: int) -> PureState:
    """Equal real amplitudes 1/sqrt(dim) on every level."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return PureState(np.full(dim, dim ** -0.5, dtype=complex))


def basis_state(dim: int, j: int) -> PureState:
    amp = np.zeros(dim, dtype=complex)
    amp[j] = 1.0
    return PureState(amp)


def evolve_phase(state: PureState, spec: Spectrum, t: float, sign: int = 1) -> PureState:
    """Apply exp(-i*sign*H*t) in the eigenbasis; exactly norm preserving."""
    _check_dims(state, spec)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phases = np.exp(-1j * sign * spec.eigenvalues * t)
    return PureState(phases * state.amplitudes)


def energy_moments(state: PureState, spec: Spectrum) -> tuple[float, float]:
    """Energy expectation and variance of the state."""
    _check_dims(state, spec)
    probs = np.abs(state.amplitudes) ** 2
    ev = spec.eigenvalues
    e = float(probs @ ev)
    var = float(probs @ (ev * ev) - e * e)
    return e, max(var, 0.0)


def survival(state: PureState, spec: Spectrum, t: float) -> tuple[float, float]:
    """Survival probability P0(t) = |<phi|e^{-iHt}|phi>|^2 and its exact
    time derivative (analytic, not finite-differenced)."""
    _check_dims(state, spec)
    probs = np.abs(state.amplitudes) ** 2
    ev = spec.eigenvalues
    phases = np.exp(-1j * ev * t)
    amp = complex(probs @ phases)
    w = complex((probs * ev) @ phases)
    p0 = abs(amp) ** 2
    dp0 = 2.0 * np.real(np.conj(amp) * (-1j) * w)
    return float(p0), float(dp0)


def eigendecompose(hermitian: np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """Sorted eigenvalues and the unitary whose columns are the eigenvectors.

    Amplitudes transform into the eigenbasis via U^dagger v.
    """
    mat = np.asarray(hermitian, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if np.abs(mat - mat.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian")
    ev, u = np.linalg.eigh(mat)
    return Spectrum(ev, label="eigendecomposed"), u


# --- serialization -----------------------------------------------------------

def csv_table(header, rows) -> str:
    """The dataset tables' one CSV dialect: the header, then a line per row,
    each cell its str() (a float's shortest round-trip repr), joined by ","
    and ended by a newline.  A row of another length raises TypeError."""
    line = ",".join(["%s"] * len(header)) + "\n"
    lines = [line % tuple(header)]
    lines += [line % tuple(row) for row in rows]
    del rows    # a spent zip still holds every column but its first; free them before the join
    return "".join(lines)


def _interleave(values: np.ndarray) -> list[float]:
    flat = np.asarray(values, dtype=complex).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return [float(x) for x in out]


def state_to_json(state: PureState) -> dict:
    return {"dim": state.dim, "amplitudes": _interleave(state.amplitudes)}
