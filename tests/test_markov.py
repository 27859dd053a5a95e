"""Metropolis matrices, Boltzmann weights, and spectral data."""
import math

import numpy as np
import pytest

from qsagen.markov import (AnnealingSchedule, ProblemSpec, boltzmann,
                           default_problem, metropolis, spectral, symmetrized)

BETAS = (0.0, 0.5, 1.0, 2.0)


def test_default_problem_nb1_energies():
    spec = default_problem(1)
    assert spec.energy(0) == 1.0 and spec.energy(1) == 0.0
    assert spec.num_states == 2


def test_metropolis_nb1_infinite_temperature():
    m = metropolis(default_problem(1), 0.0)
    np.testing.assert_allclose(m, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)


def test_metropolis_nb1_beta_ln2():
    m = metropolis(default_problem(1), math.log(2))
    np.testing.assert_allclose(m[1, 0], 1 / 3, atol=1e-15)   # downhill: accepted
    np.testing.assert_allclose(m[0, 1], 1 / 6, atol=1e-15)   # uphill: damped
    np.testing.assert_allclose(np.diag(m), [2 / 3, 5 / 6], atol=1e-15)


def test_metropolis_symmetric_at_beta_zero():
    for nb in (1, 2, 3):
        m = metropolis(default_problem(nb), 0.0)
        np.testing.assert_allclose(m, m.T, atol=1e-15)


@pytest.mark.parametrize("nb", (1, 2, 3))
@pytest.mark.parametrize("beta", BETAS)
def test_metropolis_invariants(nb, beta):
    spec = default_problem(nb)
    m = metropolis(spec, beta)
    pi = boltzmann(spec, beta)
    assert m.min() >= 0
    np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
    flow = m * pi[np.newaxis, :]
    np.testing.assert_allclose(flow, flow.T, atol=1e-12)        # detailed balance
    np.testing.assert_allclose(m @ pi, pi, atol=1e-12)          # stationarity


def test_up_bd_neig_validation():
    with pytest.raises(ValueError, match="below the maximum neighbor count"):
        default_problem(2, up_bd_neig=2.5)
    default_problem(2, up_bd_neig=3.0)      # boundary value accepted
    default_problem(1, up_bd_neig=2.0)      # two states: max degree 2


def test_problem_spec_rejects_bad_inputs():
    with pytest.raises(ValueError, match="nb must be"):
        default_problem(7)
    with pytest.raises(ValueError, match="finite and >= 0"):
        ProblemSpec(1, lambda x: -1.0, lambda x, y: True, 4.0)
    with pytest.raises(ValueError, match="not symmetric"):
        ProblemSpec(1, lambda x: 0.0, lambda x, y: x < y, 4.0)
    with pytest.raises(ValueError, match="non-negative"):
        metropolis(default_problem(1), -0.5)
    with pytest.raises(ValueError, match="up_bd_neig must be finite"):
        default_problem(1, float("nan"))
    with pytest.raises(ValueError, match="up_bd_neig must be finite"):
        default_problem(1, float("inf"))
    with pytest.raises(ValueError, match="finite and non-negative"):
        metropolis(default_problem(1), float("nan"))
    with pytest.raises(ValueError, match="finite and non-negative"):
        boltzmann(default_problem(1), float("inf"))


def test_boltzmann_values():
    spec = default_problem(1)
    np.testing.assert_allclose(boltzmann(spec, 0.0), [0.5, 0.5])
    np.testing.assert_allclose(boltzmann(spec, math.log(2)), [1 / 3, 2 / 3], atol=1e-15)
    frozen = boltzmann(spec, 200.0)
    assert frozen[1] > 1 - 1e-12  # mass concentrates on the energy minimum
    for nb in (1, 2, 3):
        for beta in BETAS:
            assert abs(boltzmann(default_problem(nb), beta).sum() - 1) < 1e-12


def test_spectral_nb1_beta0():
    spec = default_problem(1)
    m = metropolis(spec, 0.0)
    data = spectral(m, boltzmann(spec, 0.0))
    np.testing.assert_allclose(data.eigenvalues, [1.0, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(data.gap, 2 / 3, atol=1e-12)
    np.testing.assert_allclose(data.phis[1], math.acos(1 / 3), atol=1e-12)
    assert data.etas[0] == 0.0


def test_spectral_rejects_zero_gap():
    with pytest.raises(ValueError, match="zero gap"):
        spectral(np.eye(2), np.array([0.5, 0.5]))


def test_spectral_rejects_broken_balance():
    m = np.array([[0.9, 0.5], [0.1, 0.5]])
    with pytest.raises(ValueError, match="detailed balance"):
        spectral(m, np.array([0.5, 0.5]))


@pytest.mark.parametrize("nb", (1, 2, 3))
@pytest.mark.parametrize("beta", BETAS)
def test_symmetrized_shares_eigenvalues_with_m(nb, beta):
    """The general (non-symmetric) eigensolver is the independent route."""
    spec = default_problem(nb)
    m = metropolis(spec, beta)
    pi = boltzmann(spec, beta)
    data = spectral(m, pi)
    raw = np.linalg.eigvals(m)
    assert np.abs(raw.imag).max() < 1e-10
    np.testing.assert_allclose(
        np.sort(raw.real), np.sort(data.eigenvalues), atol=1e-10)
    assert data.gap > 0


@pytest.mark.parametrize("nb", (1, 2))
@pytest.mark.parametrize("beta", BETAS)
def test_symmetrized_is_similarity_transform(nb, beta):
    spec = default_problem(nb)
    m = metropolis(spec, beta)
    pi = boltzmann(spec, beta)
    d = np.diag(pi)
    sim_form = np.diag(pi ** -0.5) @ m @ np.diag(pi ** 0.5)
    np.testing.assert_allclose(symmetrized(m), sim_form, atol=1e-12)
    # sqrt(pi) is the leading eigenvector of the symmetrized matrix
    np.testing.assert_allclose(symmetrized(m) @ np.sqrt(pi), np.sqrt(pi), atol=1e-12)
    assert d.shape == (spec.num_states, spec.num_states)


def test_spectral_vectors_are_orthonormal_eigenvectors():
    spec = default_problem(2)
    m = metropolis(spec, 1.0)
    pi = boltzmann(spec, 1.0)
    data = spectral(m, pi)
    v = data.vectors
    np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(
        symmetrized(m) @ v, v * data.eigenvalues[np.newaxis, :], atol=1e-12)
    np.testing.assert_allclose(v[:, 0], np.sqrt(pi), atol=1e-12)


def test_annealing_schedule():
    sched = AnnealingSchedule(0.5, 3)
    assert sched.num_betas == 4
    assert sched.betas == (0.0, 0.5, 1.0, 1.5)
    assert sched.beta(0) == 0.0
    with pytest.raises(ValueError):
        AnnealingSchedule(0.0, 3)
    with pytest.raises(ValueError, match="finite and positive"):
        AnnealingSchedule(float("inf"), 1)
    with pytest.raises(ValueError, match="finite and positive"):
        AnnealingSchedule(float("nan"), 1)
    with pytest.raises(ValueError, match="overflows"):
        AnnealingSchedule(1e308, 2)
    with pytest.raises(ValueError):
        AnnealingSchedule(0.5, 0)
    with pytest.raises(ValueError):
        sched.beta(4)
