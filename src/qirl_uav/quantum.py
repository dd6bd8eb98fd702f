"""Four-outcome amplitude registers: collapse sampling and flexible-phase
Grover amplification, with both a matrix route and a closed-form route."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_OUTCOMES = 4
TWO_PI = 2.0 * math.pi

# Registers must be unit norm; operations reject anything farther off than this.
NORM_TOL = 1e-6


@dataclass
class PhasePair:
    """Grover rotation phases, canonicalized into [0, 2*pi)."""

    phi1: float
    phi2: float

    def __post_init__(self):
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValueError("phases must be finite")
        self.phi1 = self.phi1 % TWO_PI
        self.phi2 = self.phi2 % TWO_PI


@dataclass
class AmplitudeRegister:
    """Complex amplitudes over the four eigenactions, basis order
    |00>, |01>, |10>, |11>."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (N_OUTCOMES,):
            raise ValueError(f"register needs exactly {N_OUTCOMES} amplitudes")
        if not np.all(np.isfinite(self.amps.view(float))):
            raise ValueError("amplitudes must be finite")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amps) ** 2)) - 1.0)


def uniform_register() -> AmplitudeRegister:
    """Equal superposition: every amplitude 1/2."""
    return AmplitudeRegister(np.full(N_OUTCOMES, 0.5, dtype=complex))


def _check_normalized(reg: AmplitudeRegister) -> None:
    err = reg.norm_error()
    if err > NORM_TOL:
        raise ValueError(f"register norm off by {err:.3e} (tolerance {NORM_TOL:.0e})")


def _check_outcome(index: int) -> None:
    if not 0 <= index < N_OUTCOMES:
        raise ValueError(f"outcome index {index} outside 0..{N_OUTCOMES - 1}")


def sample_index(probs, rng: np.random.Generator) -> int:
    """Collapse sampler of both learners: over any 4-sequence of outcome
    probabilities, the first index whose running sum exceeds one uniform
    from rng, else 3. Exactly one uniform per call, so callers can account
    for the draw stream; zero-probability entries are never returned."""
    p0, p1, p2, _ = probs
    u = rng.random()
    c = p0
    if u < c:
        return 0
    c += p1
    if u < c:
        return 1
    c += p2
    if u < c:
        return 2
    return 3


def collapse(reg: AmplitudeRegister, rng: np.random.Generator) -> int:
    """Measure the register: outcome n with probability |amps[n]|^2."""
    _check_normalized(reg)
    return sample_index(reg.probabilities(), rng)


def collapse_many(reg: AmplitudeRegister, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized collapse: `shots` independent measurements, one uniform each."""
    _check_normalized(reg)
    if shots < 0:
        raise ValueError("shots must be non-negative")
    edges = np.cumsum(reg.probabilities())
    idx = np.searchsorted(edges, rng.random(shots), side="right")
    return np.minimum(idx, N_OUTCOMES - 1).astype(int)


def grover_matrix(reg: AmplitudeRegister, target: int, phases: PhasePair) -> AmplitudeRegister:
    """One flexible-phase Grover iteration built from explicit 4x4 operators.

    Applies U_reg @ U_target to the register, where
      U_target = I - (1 - e^{j*phi1}) |target><target|
      U_reg    = (1 - e^{j*phi2}) |reg><reg| - I
    The result is renormalized to absorb float rounding.
    """
    _check_normalized(reg)
    _check_outcome(target)
    e1 = np.exp(1j * phases.phi1)
    e2 = np.exp(1j * phases.phi2)
    eye = np.eye(N_OUTCOMES, dtype=complex)
    basis = np.zeros(N_OUTCOMES, dtype=complex)
    basis[target] = 1.0
    u_target = eye - (1.0 - e1) * np.outer(basis, basis.conj())
    u_reg = (1.0 - e2) * np.outer(reg.amps, reg.amps.conj()) - eye
    out = u_reg @ (u_target @ reg.amps)
    out = out / np.linalg.norm(out)
    return AmplitudeRegister(out)


def grover_analytic(reg: AmplitudeRegister, target: int, phases: PhasePair) -> AmplitudeRegister:
    """Closed-form equivalent of grover_matrix.

    With p = |amps[target]|^2 and q = (1 - e^{j*phi2}) (1 - (1 - e^{j*phi1}) p),
    the target amplitude maps to (q - e^{j*phi1}) h and every other amplitude
    to (q - 1) h. No singular cases: p = 1 collapses the non-target branch to 0.
    """
    _check_normalized(reg)
    _check_outcome(target)
    e1 = np.exp(1j * phases.phi1)
    e2 = np.exp(1j * phases.phi2)
    p = abs(reg.amps[target]) ** 2
    q = (1.0 - e2) * (1.0 - (1.0 - e1) * p)
    out = (q - 1.0) * reg.amps
    out[target] = (q - e1) * reg.amps[target]
    out = out / np.linalg.norm(out)
    return AmplitudeRegister(out)


def amplitude_ratio(phases: PhasePair, p_target: float) -> complex:
    """Complex gain applied to the target amplitude by one Grover iteration.

    The post-iteration target probability is |ratio|^2 * p_target. Symmetric
    in the two phases.
    """
    if not 0.0 <= p_target <= 1.0:
        raise ValueError("p_target must lie in [0, 1]")
    e1 = np.exp(1j * phases.phi1)
    e2 = np.exp(1j * phases.phi2)
    return complex((1.0 - e1 - e2) - (1.0 - e1) * (1.0 - e2) * p_target)
