"""Walk-operator structure, the dual-register identities, and the spectrum."""
import numpy as np
import pytest

from qsagen import sim
from qsagen.ir import Circuit, Opcode, write_english
from qsagen.markov import boltzmann, default_problem, metropolis, spectral
from qsagen.szegedy import WalkLayout, emit_U, emit_W, register_swaps, walk_state

from helpers import eig_unitary, phases_match, unitarity_defect


def swap_matrix(layout):
    return sim.to_matrix(Circuit(layout.num_qubits, register_swaps(layout)))


def chain(nb, beta):
    spec = default_problem(nb)
    m = metropolis(spec, beta)
    pi = boltzmann(spec, beta)
    return m, pi, spectral(m, pi)


def test_layout_registers():
    layout = WalkLayout(2)
    assert layout.alpha_bits == (0, 1)
    assert layout.beta_bits == (2, 3)
    assert layout.num_qubits == 4
    assert WalkLayout(2, 7).num_qubits == 7
    with pytest.raises(ValueError):
        WalkLayout(2, 3)


def test_emit_u_structure_nb1():
    m, _, _ = chain(1, 0.0)
    u = emit_U(m, WalkLayout(1))
    assert [ins.opcode for ins in u.body] == [
        Opcode.MP_Y, Opcode.SWAP, Opcode.MP_Y, Opcode.SWAP]
    # the dagger half carries the negated angles
    assert u.body[2].angles_deg == tuple(-a for a in u.body[0].angles_deg)


@pytest.mark.parametrize("nb,beta", [(1, 0.0), (1, 1.0), (2, 0.5)])
def test_u_swap_identities(nb, beta):
    m, _, _ = chain(nb, beta)
    layout = WalkLayout(nb)
    u = sim.to_matrix(emit_U(m, layout))
    sw = swap_matrix(layout)
    dim = 1 << (2 * nb)
    assert np.abs(sw @ u @ sw - u.conj().T).max() < 1e-10
    assert np.abs((u @ sw) @ (u @ sw) - np.eye(dim)).max() < 1e-10


def test_reflection_line_and_matrix():
    """W's first gate and the gate after U dagger are its alpha and beta
    reflections."""
    layout = WalkLayout(2)
    body = emit_W(chain(2, 0.5)[0], layout).body
    alpha, beta = (Circuit(layout.num_qubits, (gate,)) for gate in (body[0], body[len(body) // 2]))
    assert write_english(alpha) == "PHAS 180.0 IF  1F  0F\n"
    mat = sim.to_matrix(alpha)
    want = np.eye(16, dtype=complex)
    for idx in range(16):
        if idx & 0b11 == 0:
            want[idx, idx] = -1.0
    np.testing.assert_allclose(mat, want, atol=1e-12)
    np.testing.assert_allclose(mat @ mat, np.eye(16), atol=1e-12)
    beta_mat = sim.to_matrix(beta)
    for idx in range(16):
        expect = -1.0 if idx >> 2 == 0 else 1.0
        assert beta_mat[idx, idx] == pytest.approx(expect)


@pytest.mark.parametrize("nb", (1, 2, 3))
def test_u_swap_matrix_elements_are_chain_eigenvalues(nb):
    """<m_j 0| U.swap |m_k 0> = m_j delta(j,k)."""
    m, _, data = chain(nb, 0.5)
    layout = WalkLayout(nb)
    usw = sim.to_matrix(emit_U(m, layout)) @ swap_matrix(layout)
    ns = 1 << nb
    lifted = [walk_state(data.vectors[:, j], layout) for j in range(ns)]
    got = np.array([[lifted[j].conj() @ usw @ lifted[k] for k in range(ns)]
                    for j in range(ns)])
    np.testing.assert_allclose(got, np.diag(data.eigenvalues), atol=1e-8)


@pytest.mark.parametrize("nb,beta", [(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)])
def test_walk_fixes_stationary_state(nb, beta):
    m, pi, _ = chain(nb, beta)
    layout = WalkLayout(nb)
    w = sim.to_matrix(emit_W(m, layout))
    s0 = walk_state(np.sqrt(pi), layout)
    assert np.abs(w @ s0 - s0).max() < 1e-10


@pytest.mark.parametrize("nb,beta", [(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)])
def test_walk_spectrum_matches_chain_oracle(nb, beta):
    m, _, data = chain(nb, beta)
    w = sim.to_matrix(emit_W(m, WalkLayout(nb)))
    assert unitarity_defect(w) < 1e-10
    ns = 1 << nb
    expected = [0.0] * (ns * ns - 2 * (ns - 1))
    for phi in data.phis[1:]:
        expected.extend((2 * phi, -2 * phi))
    assert phases_match(eig_unitary(w), expected, tol=1e-8)


def test_walk_nb1_beta0_hand_values():
    m, _, data = chain(1, 0.0)
    w = sim.to_matrix(emit_W(m, WalkLayout(1)))
    phases = eig_unitary(w)
    phi1 = np.arccos(1 / 3)
    assert phases_match(phases, [0.0, 0.0, 2 * phi1, -2 * phi1], tol=1e-10)
    np.testing.assert_allclose(np.cos(2 * phi1), -7 / 9, atol=1e-12)


@pytest.mark.parametrize("nb,beta", [(1, 0.0), (1, 0.7), (2, 1.0)])
def test_walk_rotates_busy_plane_eigenvectors(nb, beta):
    """The busy-plane eigenvectors built from the chain spectrum pick up
    exp(+-2i*phi_j) under W.

    With |e1> the lifted chain eigenvector and U.swap|e1> at angle phi_j
    from it, the normalized eigenvector of exp(+-2i*phi) is
    (+-i/(sqrt(2) sin(phi))) * (exp(-i eta) U.swap|e1> - exp(-+i phi)|e1>)
    (note the opposite inner phase: W turns e1 toward the U.swap image).
    """
    m, _, data = chain(nb, beta)
    layout = WalkLayout(nb)
    w = sim.to_matrix(emit_W(m, layout))
    usw = sim.to_matrix(emit_U(m, layout)) @ swap_matrix(layout)
    for j in range(1, 1 << nb):
        phi, eta = data.phis[j], data.etas[j]
        base = walk_state(data.vectors[:, j], layout)
        rotated = np.exp(-1j * eta) * (usw @ base)
        pair = {}
        for sign in (+1, -1):
            psi = (sign * 1j / (np.sqrt(2) * np.sin(phi))) * (
                rotated - np.exp(-sign * 1j * phi) * base)
            assert abs(np.linalg.norm(psi) - 1) < 1e-8
            defect = np.abs(w @ psi - np.exp(sign * 2j * phi) * psi).max()
            assert defect < 1e-8
            pair[sign] = psi
        assert abs(np.vdot(pair[+1], pair[-1])) < 1e-8


@pytest.mark.parametrize("nb,beta", [(1, 0.4), (2, 0.8)])
def test_walk_acts_as_identity_off_the_busy_subspace(nb, beta):
    """The busy subspace is spanned by the lifted chain eigenvectors and
    their U.swap images; W fixes its orthogonal complement pointwise."""
    m, _, data = chain(nb, beta)
    layout = WalkLayout(nb)
    w = sim.to_matrix(emit_W(m, layout))
    usw = sim.to_matrix(emit_U(m, layout)) @ swap_matrix(layout)
    ns = 1 << nb
    busy = []
    for j in range(ns):
        lifted = walk_state(data.vectors[:, j], layout)
        busy.extend((lifted, usw @ lifted))
    left, singulars, _ = np.linalg.svd(np.array(busy).T)
    rank = int(np.sum(singulars > 1e-10))
    assert rank == 2 * ns - 1
    complement = left[:, rank:]
    assert np.abs(w @ complement - complement).max() < 1e-8


def test_walk_identity_multiplicity_counts_idle_space():
    m, _, data = chain(2, 0.5)
    w = sim.to_matrix(emit_W(m, WalkLayout(2)))
    phases = eig_unitary(w)
    near_zero = int(np.sum(np.abs(np.exp(1j * phases) - 1) < 1e-8))
    assert near_zero == 16 - 2 * 3  # NS^2 - 2(NS-1) with NS = 4


def test_walk_state_shape_checks():
    layout = WalkLayout(1, 4)
    lifted = walk_state(np.array([0.6, 0.8]), layout)
    assert lifted.shape == (16,)
    assert lifted[0] == 0.6 and lifted[2] == 0.8
    with pytest.raises(ValueError, match="dimension"):
        walk_state(np.ones(3), layout)
