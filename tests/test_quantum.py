"""Register, collapse, and flexible-phase amplification checks."""

import math

import numpy as np
import pytest
from scipy import stats

from qirl_uav.quantum import (
    AmplitudeRegister,
    PhasePair,
    amplitude_ratio,
    collapse,
    collapse_many,
    grover_analytic,
    grover_matrix,
    sample_index,
    uniform_register,
)

PI = math.pi


def random_register(rng: np.random.Generator) -> AmplitudeRegister:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return AmplitudeRegister(amps / np.linalg.norm(amps))


class _FixedUniform:
    """Stands in for a Generator when a test needs one exact draw."""

    def __init__(self, u: float):
        self.u = u

    def random(self):
        return self.u


def test_uniform_register_is_equal_superposition():
    reg = uniform_register()
    assert np.array_equal(reg.probabilities(), np.full(4, 0.25))
    assert reg.norm_error() < 1e-15


def test_register_validation():
    with pytest.raises(ValueError):
        AmplitudeRegister(np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        AmplitudeRegister(np.array([np.inf, 0, 0, 0], dtype=complex))


def test_collapse_rejects_unnormalized_register():
    reg = AmplitudeRegister(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        collapse(reg, np.random.Generator(np.random.Philox(0)))


def test_sample_index_degenerate_distributions():
    rng = np.random.Generator(np.random.Philox(1))
    for make_probs in (np.array, list, tuple):  # any 4-sequence
        assert all(sample_index(make_probs([1.0, 0, 0, 0]), rng) == 0 for _ in range(20))
        assert all(sample_index(make_probs([0, 0, 0, 1.0]), rng) == 3 for _ in range(20))


def test_sample_index_never_returns_zero_probability_outcome():
    rng = np.random.Generator(np.random.Philox(2))
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    draws = {sample_index(probs, rng) for _ in range(2000)}
    assert draws == {0, 1}


def test_sample_index_clamps_when_uniform_exceeds_last_edge():
    # cumsum tops out at 0.4 here; a draw beyond it must map to the last index
    probs = np.array([0.1, 0.1, 0.1, 0.1])
    assert sample_index(probs, _FixedUniform(0.7)) == 3


def test_sample_index_consumes_exactly_one_uniform():
    a = np.random.Generator(np.random.Philox(3))
    b = np.random.Generator(np.random.Philox(3))
    sample_index(np.full(4, 0.25), a)
    b.random()
    assert a.random() == b.random()


def test_collapse_frequencies_track_probabilities():
    reg = AmplitudeRegister(np.sqrt([0.5, 0.3, 0.1, 0.1]).astype(complex))
    rng = np.random.Generator(np.random.Philox(4))
    n = 20_000
    counts = np.bincount([collapse(reg, rng) for _ in range(n)], minlength=4)
    freqs = counts / n
    assert np.all(np.abs(freqs - [0.5, 0.3, 0.1, 0.1]) < 0.02)
    assert stats.chisquare(counts, n * np.array([0.5, 0.3, 0.1, 0.1])).pvalue > 1e-4


def test_collapse_many_matches_sequential_collapse():
    reg = AmplitudeRegister(np.sqrt([0.4, 0.3, 0.2, 0.1]).astype(complex))
    vec = collapse_many(reg, 500, np.random.Generator(np.random.Philox(5)))
    rng = np.random.Generator(np.random.Philox(5))
    seq = [collapse(reg, rng) for _ in range(500)]
    assert vec.tolist() == seq


def test_collapse_many_rejects_negative_shots():
    with pytest.raises(ValueError):
        collapse_many(uniform_register(), -1, np.random.Generator(np.random.Philox(0)))


def test_phase_pair_canonicalizes_into_two_pi():
    pp = PhasePair(2 * PI + 1.0, -1.0)
    assert pp.phi1 == pytest.approx(1.0)
    assert pp.phi2 == pytest.approx(2 * PI - 1.0)
    with pytest.raises(ValueError):
        PhasePair(math.nan, 0.0)


def test_grover_target_index_validation():
    with pytest.raises(ValueError):
        grover_matrix(uniform_register(), 4, PhasePair(PI, PI))
    with pytest.raises(ValueError):
        grover_analytic(uniform_register(), -1, PhasePair(PI, PI))


def test_grover_pi_phases_amplify_every_target_to_certainty():
    """From the equal superposition, one pi/pi iteration lands on the target."""
    for target in range(4):
        out = grover_matrix(uniform_register(), target, PhasePair(PI, PI))
        probs = out.probabilities()
        assert abs(probs[target] - 1.0) < 1e-12
        assert out.norm_error() < 1e-12


def test_grover_closed_form_matches_matrix_route():
    rng = np.random.Generator(np.random.Philox(6))
    for _ in range(300):
        reg = random_register(rng)
        target = int(rng.integers(4))
        phases = PhasePair(rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        via_matrix = grover_matrix(reg, target, phases)
        via_formula = grover_analytic(reg, target, phases)
        assert np.allclose(via_matrix.amps, via_formula.amps, atol=1e-12, rtol=0)
        assert via_matrix.norm_error() < 1e-12


def test_target_gain_squared_predicts_post_probability():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(300):
        reg = random_register(rng)
        target = int(rng.integers(4))
        phases = PhasePair(rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        p = float(abs(reg.amps[target]) ** 2)
        predicted = abs(amplitude_ratio(phases, p)) ** 2 * p
        actual = grover_matrix(reg, target, phases).probabilities()[target]
        assert abs(predicted - actual) < 1e-12


def test_amplitude_ratio_reference_point_and_symmetry():
    # pi/pi phases on a quarter-probability target: gain is exactly 2
    assert amplitude_ratio(PhasePair(PI, PI), 0.25) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(50):
        a, b = rng.uniform(0, 2 * PI, size=2)
        p = float(rng.uniform(0, 1))
        assert abs(amplitude_ratio(PhasePair(a, b), p) - amplitude_ratio(PhasePair(b, a), p)) < 1e-12


def test_amplitude_ratio_rejects_bad_probability():
    with pytest.raises(ValueError):
        amplitude_ratio(PhasePair(PI, PI), -0.1)
    with pytest.raises(ValueError):
        amplitude_ratio(PhasePair(PI, PI), 1.1)


def test_grover_handles_zero_amplitude_target():
    amps = np.array([0.0, 0.6, 0.0, 0.8], dtype=complex)
    reg = AmplitudeRegister(amps)
    phases = PhasePair(1.3, 2.1)
    via_matrix = grover_matrix(reg, 0, phases)
    via_formula = grover_analytic(reg, 0, phases)
    assert np.allclose(via_matrix.amps, via_formula.amps, atol=1e-12, rtol=0)
    assert via_matrix.probabilities()[0] < 1e-24


def test_grover_handles_certain_target():
    # p = 1: the non-target branch must collapse to zero, not blow up
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    out = grover_analytic(AmplitudeRegister(amps), 2, PhasePair(0.7, 0.2))
    assert abs(out.probabilities()[2] - 1.0) < 1e-12
