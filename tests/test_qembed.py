"""Multiplexor-cascade embedding: stage angles and amplitude exactness."""
import math

import numpy as np
import pytest

from qsagen import sim
from qsagen.ir import Circuit, MuxControl, Opcode, roty, write_english
from qsagen.markov import default_problem, metropolis
from qsagen.qembed import file_angle_deg, qembed_angles, qembed_circuit, validate_stochastic

from helpers import per_word_qembed_angles, random_stochastic


def amplitude_defect(q, unitary, nb):
    """max | <yt y|U|0 x> - delta(y,x) sqrt(q[yt,x]) | over all indices."""
    ns = 1 << nb
    worst = 0.0
    for x in range(ns):
        for y in range(ns):
            for yt in range(ns):
                amp = unitary[(yt << nb) | y, x]
                want = math.sqrt(q[yt, x]) if y == x else 0.0
                worst = max(worst, abs(amp - want))
    return worst


def test_angles_identity_matrix():
    (angles,) = qembed_angles(np.eye(2))
    np.testing.assert_allclose(angles, [0.0, math.pi / 2], atol=1e-15)


def test_angles_uniform_matrix():
    (angles,) = qembed_angles(np.full((2, 2), 0.5))
    np.testing.assert_allclose(angles, [math.pi / 4] * 2, atol=1e-15)


def test_angles_stay_in_first_quadrant():
    rng = np.random.default_rng(0)
    for nb in (1, 2):
        for _ in range(10):
            for angles in qembed_angles(random_stochastic(rng, 1 << nb)):
                assert all(0 <= t <= math.pi / 2 for t in angles)


def test_angle_table_shapes_nb2():
    q = random_stochastic(np.random.default_rng(1), 4)
    assert [len(angles) for angles in qembed_angles(q)] == [4, 8]
    first, second = qembed_circuit(q).body
    assert (first.targets, second.targets) == ((2,), (3,))
    assert set(first.mux_controls) == {MuxControl(b, b) for b in range(2)}
    assert set(second.mux_controls) == {MuxControl(b, b) for b in range(3)}


def zero_prefix_stochastic(rng, ns):
    """A random column-stochastic matrix in which every odd sample y has
    probability zero in the even columns, and y = 1 in every column, so
    some prefixes of every stage are unreachable."""
    q = rng.dirichlet(np.full(ns, 0.3), size=ns).T
    q[1::2, ::2] = 0.0
    q[1] = 0.0
    return q / q.sum(axis=0)


# Stage s sums up to 2**(nb-s-1) entries of a column, in an order that numpy
# picks from the memory layout; the angles must stay bit for bit those of
# the per-word sums, which is what the files print.
@pytest.mark.parametrize("nb", range(1, 7))
def test_angles_equal_the_per_word_sums_exactly(nb):
    rng = np.random.default_rng(200 + nb)
    problem = default_problem(nb)
    matrices = [metropolis(problem, beta) for beta in (0.0, 0.5, 1.0, 2.0, 3.7)]
    matrices += [random_stochastic(rng, 1 << nb) for _ in range(20)]
    matrices += [rng.dirichlet(np.full(1 << nb, 0.05), size=1 << nb).T for _ in range(5)]
    matrices.append(zero_prefix_stochastic(rng, 1 << nb))
    for q in matrices:
        assert qembed_angles(q) == per_word_qembed_angles(q)


def test_circuit_identity_q_line():
    circuit = qembed_circuit(np.eye(2))
    assert write_english(circuit) == "MP_Y  AT  1 IF 0(0 BY 0.0 -90.0\n"


def test_circuit_accepts_an_array_like():
    assert write_english(qembed_circuit([[1.0, 0.0], [0.0, 1.0]])) == \
        write_english(qembed_circuit(np.eye(2)))


def test_circuit_nb2_is_two_multiplexors():
    circuit = qembed_circuit(random_stochastic(np.random.default_rng(2), 4))
    assert [ins.opcode for ins in circuit.body] == [Opcode.MP_Y, Opcode.MP_Y]
    assert [len(ins.angles_deg) for ins in circuit.body] == [4, 8]


def test_uniform_q_first_column():
    u = sim.to_matrix(qembed_circuit(np.full((2, 2), 0.5)))
    np.testing.assert_allclose(u[:, 0], [2 ** -0.5, 0, 2 ** -0.5, 0], atol=1e-12)


@pytest.mark.parametrize("nb", (1, 2))
def test_amplitude_identity_random(nb):
    rng = np.random.default_rng(100 + nb)
    for _ in range(10):
        q = random_stochastic(rng, 1 << nb)
        u = sim.to_matrix(qembed_circuit(q))
        assert amplitude_defect(q, u, nb) < 1e-10


@pytest.mark.parametrize("nb", (1, 2, 3))
@pytest.mark.parametrize("beta", (0.0, 1.0))
def test_amplitude_identity_metropolis(nb, beta):
    q = metropolis(default_problem(nb), beta)
    u = sim.to_matrix(qembed_circuit(q))
    assert amplitude_defect(q, u, nb) < 1e-10


def test_summed_sink_marginals_reproduce_q():
    """sum over the sink register of |amplitude|^2 recovers each column."""
    rng = np.random.default_rng(3)
    nb = 2
    q = random_stochastic(rng, 1 << nb)
    u = sim.to_matrix(qembed_circuit(q))
    ns = 1 << nb
    for x in range(ns):
        for yt in range(ns):
            total = sum(abs(u[(yt << nb) | y, x]) ** 2 for y in range(ns))
            assert abs(total - q[yt, x]) < 1e-10


def test_zero_probability_branch_gets_zero_angle():
    q = np.array([[1.0, 0.0, 1.0, 1.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0]])
    stage0, stage1 = qembed_angles(q)
    # column 0 sends everything to y=0; the y-bit-1 stage conditioned on an
    # unreachable prefix (bit0 of y = 1) must fall back to angle 0
    assert stage1[(1 << 2) | 0] == 0.0
    assert qembed_angles(q) == per_word_qembed_angles(q)
    u = sim.to_matrix(qembed_circuit(q))
    assert amplitude_defect(q, u, 2) < 1e-10


def test_rotation_kernel_matrix_elements():
    """exp(-i*theta*sigma_y) columns: C/S on the source column, and the
    flip identity <b|K(theta)|a> = <b^a|K((-1)^a theta)|0>."""
    for theta in (0.3, 1.1, -0.7):
        def kernel(t):
            return sim.to_matrix(Circuit(1, (roty(-math.degrees(2 * t), 0),)))
        k = kernel(theta)
        c, s = math.cos(theta), math.sin(theta)
        np.testing.assert_allclose(k, [[c, -s], [s, c]], atol=1e-14)
        for b in (0, 1):
            assert abs(k[b, 0] - (c if b == 0 else s)) < 1e-14
            for a in (0, 1):
                flipped = kernel(theta if a == 0 else -theta)
                assert abs(k[b, a] - flipped[b ^ a, 0]) < 1e-14


def test_mux_kernel_matches_file_angle_convention():
    """A multiplexor line written with file_angle_deg(theta) simulates to
    exp(-i*theta*sigma_y) on its selected branch."""
    theta = 0.8
    circuit = qembed_circuit(np.array([[math.cos(theta) ** 2, 0.25],
                                       [math.sin(theta) ** 2, 0.75]]))
    u = sim.to_matrix(circuit)
    np.testing.assert_allclose(u[0, 0], math.cos(theta), atol=1e-12)
    np.testing.assert_allclose(u[2, 0], math.sin(theta), atol=1e-12)
    assert file_angle_deg(math.pi / 2) == -90.0


def test_validate_stochastic_rejects():
    with pytest.raises(ValueError, match="square"):
        validate_stochastic(np.ones((2, 3)))
    with pytest.raises(ValueError, match="power of two"):
        validate_stochastic(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="sum to 1"):
        validate_stochastic(np.full((2, 2), 0.4))
    with pytest.raises(ValueError, match="negative"):
        validate_stochastic(np.array([[1.2, 0.5], [-0.2, 0.5]]))
