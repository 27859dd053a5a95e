"""Metropolis chains, Boltzmann distributions, and their spectral data.

Matrices are column-indexed conditional probabilities: ``m[y, x]`` is the
probability of moving to state y given state x, so every column sums to 1.
Dense numpy throughout; the intended scale is at most 2**6 states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_STATE_BITS = 6
BALANCE_TOL = 1e-10  # spectral: the largest detailed-balance defect
GAP_TOL = 1e-12  # spectral: a gap at or below this counts as zero


@dataclass(frozen=True)
class ProblemSpec:
    """A minimization problem: energies, a neighbor relation, and the
    upper bound used to normalize Metropolis proposal probabilities.

    ``up_bd_neig`` must dominate every column sum of the neighbor indicator
    (self-neighbors included); a smaller value could push Metropolis
    diagonal entries negative and is rejected here.
    """

    nb: int
    energy: Callable[[int], float]
    neighbor: Callable[[int, int], bool]
    up_bd_neig: float

    def __post_init__(self):
        if not 1 <= self.nb <= MAX_STATE_BITS:
            raise ValueError(f"nb must be in 1..{MAX_STATE_BITS}, got {self.nb}")
        ns = self.num_states
        for x in range(ns):
            e = self.energy(x)
            if not (math.isfinite(e) and e >= 0):
                raise ValueError(f"energy({x}) = {e} must be finite and >= 0")
        for x in range(ns):
            for y in range(x):
                if bool(self.neighbor(x, y)) != bool(self.neighbor(y, x)):
                    raise ValueError(f"neighbor relation not symmetric at ({x}, {y})")
        max_degree = max(
            sum(bool(self.neighbor(x, y)) for x in range(ns)) for y in range(ns))
        if not math.isfinite(self.up_bd_neig):
            raise ValueError(f"up_bd_neig must be finite, got {self.up_bd_neig}")
        if self.up_bd_neig < max_degree:
            raise ValueError(
                f"up_bd_neig = {self.up_bd_neig} is below the maximum neighbor "
                f"count {max_degree}")

    @property
    def num_states(self) -> int:
        return 1 << self.nb


def default_problem(nb: int, up_bd_neig: float = 3.0) -> ProblemSpec:
    """The stock problem: E(x) = (x - NS/2)^2, neighbors within distance 1."""
    return ProblemSpec(
        nb=nb,
        energy=lambda x: (x - (1 << nb) / 2) ** 2,
        neighbor=lambda x, y: abs(x - y) <= 1,
        up_bd_neig=up_bd_neig,
    )


def check_beta(beta: float) -> None:
    """Reject an inverse temperature that is negative or not finite."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")


def metropolis(spec: ProblemSpec, beta: float) -> np.ndarray:
    """Metropolis transition matrix at inverse temperature beta.

    Off-diagonal: neighbor(x,y)/up_bd_neig * min(1, exp(-beta*(E(y)-E(x)))).
    The diagonal completes each column to 1.
    """
    check_beta(beta)
    ns = spec.num_states
    e = np.array([spec.energy(x) for x in range(ns)], dtype=float)
    m = np.zeros((ns, ns))
    for x in range(ns):
        for y in range(ns):
            if y != x and spec.neighbor(x, y):
                lift = beta * (e[y] - e[x])
                accept = math.exp(-lift) if lift > 0 else 1.0
                m[y, x] = accept / spec.up_bd_neig
    m[np.diag_indices(ns)] = 1.0 - m.sum(axis=0)
    return m


def boltzmann(spec: ProblemSpec, beta: float) -> np.ndarray:
    """Normalized Boltzmann weights exp(-beta*E(x)) / Z."""
    check_beta(beta)
    e = np.array([spec.energy(x) for x in range(spec.num_states)], dtype=float)
    w = np.exp(-beta * (e - e.min()))  # shift exponents; same distribution
    return w / w.sum()


def symmetrized(m: np.ndarray) -> np.ndarray:
    """Entrywise sqrt(m[y,x] * m[x,y]); shares eigenvalues with m when the
    chain has a detailed-balance distribution."""
    return np.sqrt(np.asarray(m) * np.asarray(m).T)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectrum of a reversible chain, ordered with the unit eigenvalue first
    and the rest by decreasing magnitude.

    eigenvalues[j] = sign(etas[j]) * cos(phis[j]) with phis in [0, pi/2] and
    etas in {0, pi}; gap = 1 - |eigenvalues[1]|; vectors holds the matching
    orthonormal eigenvectors of the symmetrized matrix as columns.
    """

    eigenvalues: np.ndarray
    phis: np.ndarray
    etas: np.ndarray
    gap: float
    vectors: np.ndarray


def spectral(m: np.ndarray, pi: np.ndarray) -> SpectralData:
    """Diagonalize the symmetrized chain; reject broken balance or zero gap."""
    m = np.asarray(m, dtype=float)
    pi = np.asarray(pi, dtype=float)
    flow = m * pi[np.newaxis, :]
    worst = float(np.abs(flow - flow.T).max())
    if worst > BALANCE_TOL:
        raise ValueError(f"pi is not a detailed balance of m (defect {worst:.3e})")
    msym = symmetrized(m)
    w, v = np.linalg.eigh(msym)
    lead = int(np.argmax(w))
    if abs(w[lead] - 1.0) > 1e-10:
        raise ValueError(f"leading eigenvalue {w[lead]} is not 1")
    order = [lead] + sorted((i for i in range(len(w)) if i != lead),
                            key=lambda i: -abs(w[i]))
    values = w[order]
    vectors = v[:, order]
    gap = 1.0 - abs(values[1])
    if gap <= GAP_TOL:
        raise ValueError("zero gap: chain has no spectral gap")
    if vectors[:, 0].sum() < 0:
        vectors = vectors.copy()
        vectors[:, 0] = -vectors[:, 0]
    phis = np.arccos(np.clip(np.abs(values), 0.0, 1.0))
    etas = np.where(values >= 0, 0.0, math.pi)
    return SpectralData(values, phis, etas, float(gap), vectors)


@dataclass(frozen=True)
class AnnealingSchedule:
    """The inverse-temperature ladder beta_j = j * delta_beta, j = 0..t_f."""

    delta_beta: float
    t_f: int

    def __post_init__(self):
        if not (math.isfinite(self.delta_beta) and self.delta_beta > 0):
            raise ValueError(f"delta_beta must be finite and positive, got {self.delta_beta}")
        if self.t_f < 1:
            raise ValueError(f"need at least 2 betas, got t_f = {self.t_f}")
        if math.isinf(self.t_f * self.delta_beta):
            raise ValueError(f"the last beta, {self.t_f} * {self.delta_beta}, overflows")

    @property
    def num_betas(self) -> int:
        return self.t_f + 1

    def beta(self, j: int) -> float:
        if not 0 <= j <= self.t_f:
            raise ValueError(f"schedule index {j} outside 0..{self.t_f}")
        return j * self.delta_beta

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(j * self.delta_beta for j in range(self.t_f + 1))
