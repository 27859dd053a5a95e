"""The checks `verify` runs, on chains other than the stock problem's."""
import numpy as np
import pytest

from qsagen import checks
from qsagen.annealer import GeneratorConfig, PEParams
from qsagen.markov import AnnealingSchedule, boltzmann, default_problem, metropolis

from helpers import random_reversible_chain

CORRUPTIBLE = (checks.embedding, checks.walk_spectrum)
TOLERANCE = {check: tol for _, check, tol in checks.CHECKS}


def config(nb, probe_bits=1):
    return GeneratorConfig(default_problem(nb), PEParams(probe_bits, 1, 1),
                           AnnealingSchedule(0.5, 1))


def test_tolerances_are_the_readme_values():
    assert [(name, tol) for name, _, tol in checks.CHECKS] == [
        ("column sums", 1e-12),
        ("detailed balance", 1e-12),
        ("q-embedding amplitudes", 1e-10),
        ("walk spectrum", 1e-8),
        ("mux expansion", 1e-10),
        ("phase-reflection fixed point", 1e-8),
    ]


@pytest.mark.parametrize("nb", [1, 2, 3])
def test_every_check_passes_on_random_chains_and_a_corrupted_angle_fails(nb):
    """Eight seeded random reversible chains per nb pass every check; with
    a corrupted angle, each fails the embedding and walk-spectrum checks."""
    rng = np.random.default_rng(nb)
    for _ in range(8):
        m, pi = random_reversible_chain(rng, 1 << nb)
        point = checks.Point(config(nb), m, pi)
        for name, check, tol in checks.CHECKS:
            assert check(point) <= tol, name
        bad = checks.Point(config(nb), m, pi, corrupt=True)
        for check in CORRUPTIBLE:
            assert check(bad) > TOLERANCE[check], check.__name__


def test_corrupted_angle_fails_at_nb5():
    problem = default_problem(5)
    m, pi = metropolis(problem, 0.5), boltzmann(problem, 0.5)
    for corrupt in (False, True):
        point = checks.Point(config(5, probe_bits=2), m, pi, corrupt)
        for check in CORRUPTIBLE:
            assert (check(point) > TOLERANCE[check]) is corrupt, check.__name__
