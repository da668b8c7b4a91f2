"""Spectral Hamiltonians: the four benchmark models, the spectrum-doubling
construction, and spectrum-derived constants (gap, span, ground degeneracy).

All dynamics in this package runs in the energy eigenbasis, so a Hamiltonian
is represented by its sorted eigenvalue list alone.  Dense Hermitian input is
supported through :func:`swapcool.quantum.eigendecompose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODEL_KINDS = ("a", "b", "c", "d")

#: absolute tolerance (in energy units) for counting degenerate ground levels
DEGENERACY_TOL = 1e-12
#: the most levels build_model or double will allocate (8 MB of floats); the
#: sweeps in use reach dim 4096, and dim 512 doubled
MAX_LEVELS = 1 << 20


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalue list of a diagonal Hamiltonian."""

    eigenvalues: np.ndarray
    label: str = ""

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 2:
            raise ValueError("spectrum needs at least 2 eigenvalues")
        if not np.isfinite(ev).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class SpectralStats:
    gap: float            # distance from the ground eigenspace to the next level
    span: float           # top minus ground
    ground_degeneracy: int


def build_model(kind: str, dim: int, delta: float) -> Spectrum:
    """Construct one of the four benchmark spectra.

    (a) single level at -delta, rest zero; (b) adds a mirror level at +delta;
    (c) eigenvalues -delta*(zeros-minus-ones bit count) over all binary words
    of log2(dim) digits; (d) J-fold bands at -delta and +delta with
    J = floor(sqrt(dim) - 1).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 2 <= dim <= MAX_LEVELS:
        raise ValueError(f"dim must lie in [2, {MAX_LEVELS}], got {dim}")
    if kind == "a":
        ev = np.zeros(dim)
        ev[0] = -delta
    elif kind == "b":
        if dim < 3:
            raise ValueError("model (b) needs dim >= 3")
        ev = np.zeros(dim)
        ev[0] = -delta
        ev[-1] = delta
    elif kind == "c":
        nbits = dim.bit_length() - 1
        if dim != 1 << nbits:
            raise ValueError("model (c) needs dim to be a power of 2")
        # k ones in an nbits-digit word: C(nbits, k) words at -delta*(nbits - 2k)
        k = np.arange(nbits + 1)
        counts = [math.comb(nbits, j) for j in range(nbits + 1)]
        ev = np.repeat(-delta * (nbits - 2 * k), counts).astype(float)
    else:
        if dim < 4:
            raise ValueError("model (d) needs dim >= 4")
        j_deg = int(np.sqrt(dim) - 1)
        ev = np.zeros(dim)
        ev[:j_deg] = -delta
        ev[dim - j_deg:] = delta
    return Spectrum(np.sort(ev), label=kind)


def double(spec: Spectrum) -> Spectrum:
    """Spectrum of H (x) I - I (x) H: all pairwise eigenvalue differences.

    The result is symmetric about zero, which voids the total-energy lower
    bound on the network size (see :func:`min_m_bound`).
    """
    ev = spec.eigenvalues
    if spec.dim ** 2 > MAX_LEVELS:
        raise ValueError(f"doubling dim {spec.dim} gives {spec.dim ** 2} levels, over the "
                         f"cap {MAX_LEVELS}")
    with np.errstate(over="ignore"):     # an overflow is refused by Spectrum
        diffs = (ev[:, None] - ev[None, :]).ravel()
    label = f"double({spec.label})" if spec.label else "double"
    return Spectrum(np.sort(diffs), label=label)


def spectral_stats(spec: Spectrum) -> SpectralStats:
    ev = spec.eigenvalues
    ground = float(ev[0])
    top = float(ev[-1])
    j_deg = int(np.count_nonzero(ev <= ground + DEGENERACY_TOL))
    if j_deg >= spec.dim:
        raise ValueError("constant spectrum: gap undefined")
    gap = float(ev[j_deg] - ground)
    return SpectralStats(gap, top - ground, j_deg)


def min_m_bound(spec: Spectrum, e0: float) -> float:
    """Total-energy lower bound on the network half-size m.

    Running the pairing network requires m > (1/2)(e_max - e_min)/(e_max - E0)
    where E0 is the initial-state energy; spectra symmetric about an E0 of
    zero make the bound vacuous (equal to 1).
    """
    ev = spec.eigenvalues
    top = float(ev[-1])
    if e0 >= top:
        raise ValueError("initial energy must lie below the top eigenvalue")
    return 0.5 * (top - float(ev[0])) / (top - e0)


# --- serialization -----------------------------------------------------------

def spectrum_to_text(spec: Spectrum) -> str:
    """One eigenvalue per line, with a `#` header carrying the model tag and
    the spectral gap."""
    header = f"# label={spec.label} dim={spec.dim}"
    try:
        header += f" gap={spectral_stats(spec).gap!r}"
    except ValueError:
        pass     # constant spectrum: no gap to record
    lines = [header]
    lines += [repr(float(x)) for x in spec.eigenvalues]
    return "\n".join(lines) + "\n"


def spectrum_from_text(text: str) -> Spectrum:
    label = ""
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tokens in line[1:].split():
                if tokens.startswith("label="):
                    label = tokens[6:]
            continue
        values.append(float(line))
    return Spectrum(np.array(values), label=label)


def spectrum_to_json(spec: Spectrum) -> dict:
    return {"label": spec.label, "eigenvalues": [float(x) for x in spec.eigenvalues]}


def spectrum_from_json(obj: dict) -> Spectrum:
    return Spectrum(np.array(obj["eigenvalues"], dtype=float), label=obj.get("label", ""))
