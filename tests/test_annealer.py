"""Phase estimation, the phase-gated reflection, and the fixed-point recursion."""
import math

import numpy as np
import pytest

from qsagen import annealer, ir, sim, szegedy
from qsagen.annealer import (GeneratorConfig, PEParams, _grover_pair, emit_full,
                             emit_U_grover, emit_V, inverse_qft)
from qsagen.ir import (Circuit, Control, Instruction, Loop, Opcode, count_elementary_ops,
                       dagger, had2, phas, sigx, with_control, write_english)
from qsagen.markov import (AnnealingSchedule, boltzmann, default_problem,
                           metropolis, spectral)
from qsagen.szegedy import WalkLayout, emit_W, walk_state

from helpers import r_tilde, spliced, unitarity_defect


def make_config(nb=1, a=1, c=1, d=1, delta=0.5, t_f=2, conjugate_q=False):
    return GeneratorConfig(
        problem=default_problem(nb),
        pe=PEParams(a, c, d),
        schedule=AnnealingSchedule(delta, t_f),
        conjugate_q=conjugate_q,
    )


def stationary_input(config, beta):
    spec = config.problem
    m = metropolis(spec, beta)
    data = spectral(m, boltzmann(spec, beta))
    return walk_state(data.vectors[:, 0], config.layout)


def test_emit_controlled_line_and_empty():
    controlled = Circuit(6, with_control((sigx(1),), Control(5, True)))
    assert write_english(controlled) == "SIGX  AT  1  IF  5T\n"
    assert Circuit(6, with_control((), Control(5, True))).body == ()


def test_emit_controlled_is_block_diagonal():
    rng = np.random.default_rng(0)
    from helpers import random_circuit
    inner = random_circuit(rng, num_qubits=2, loops=False)
    controlled = Circuit(3, with_control(inner.body, Control(2, True)))
    got = sim.to_matrix(controlled)
    want = np.eye(8, dtype=complex)
    want[4:, 4:] = sim.to_matrix(inner)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_emit_controlled_collision():
    with pytest.raises(ValueError, match="collides"):
        Circuit(3, with_control((sigx(1),), Control(1, True)))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(3, with_control((sigx(1),), Control(3, True)))


@pytest.mark.parametrize("a", (1, 2, 3))
def test_inverse_qft_matrix(a):
    """Equals bit-reversal composed with the inverse discrete Fourier matrix."""
    got = sim.to_matrix(Circuit(a, inverse_qft(range(a))))
    dim = 1 << a
    fourier = np.array([[np.exp(2j * np.pi * p * m / dim) / np.sqrt(dim)
                         for m in range(dim)] for p in range(dim)])
    reverse = np.zeros((dim, dim))
    for m in range(dim):
        reverse[int(format(m, f"0{a}b")[::-1], 2), m] = 1
    np.testing.assert_allclose(got, reverse @ fourier.conj().T, atol=1e-12)


def test_emit_v_structure_minimal():
    config = make_config(nb=1, a=1, c=1)
    v = spliced(emit_V(0.0, config))
    assert v.num_qubits == 3
    ops = [ins.opcode for ins in v.body]
    assert ops[0] is Opcode.HAD2 and ops[-1] is Opcode.HAD2
    assert len(v.body) == 12  # H + controlled walk (10 lines) + H
    assert all(Control(2, True) in ins.controls for ins in v.body[1:-1])


def test_emit_v_uses_loops_for_powers():
    config = make_config(nb=1, a=2, c=1)
    v = emit_V(0.0, config)
    loops = [node for node in v.body if isinstance(node, Loop)]
    assert [node.reps for node in loops] == [2]
    config3 = make_config(nb=1, a=3, c=1)
    loops3 = [node for node in emit_V(0.0, config3).body if isinstance(node, Loop)]
    assert [node.reps for node in loops3] == [2, 4]


def test_qubit_count_formula():
    for nb, a, c in [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 2, 4)]:
        config = make_config(nb=nb, a=a, c=c)
        assert config.num_qubits == 2 * nb + a * c
        assert emit_full(config).num_qubits == 2 * nb + a * c
    assert make_config(nb=3, a=2, c=4).num_qubits == 14


@pytest.mark.parametrize("beta", (0.0, 0.7))
def test_v_fixes_phase_zero_eigenvector(beta):
    config = make_config(nb=1, a=2, c=2)
    v = sim.to_matrix(emit_V(beta, config))
    assert unitarity_defect(v) < 1e-10
    state = stationary_input(config, beta)
    assert np.abs(v @ state - state).max() < 1e-8


def test_v_estimates_nonzero_phase_away_from_zero():
    """For a non-stationary eigenvector the probe register must leave
    |0...0>: the overlap with all-zero probes drops below 1."""
    config = make_config(nb=1, a=3, c=1)
    beta = 0.5
    spec = config.problem
    m = metropolis(spec, beta)
    data = spectral(m, boltzmann(spec, beta))
    v = sim.to_matrix(emit_V(beta, config))
    mixed = walk_state(data.vectors[:, 1], config.layout)
    out = v @ mixed
    kept = np.linalg.norm(out[:4]) ** 2  # amplitude still on probe = |000>
    assert kept < 0.5


@pytest.mark.parametrize("beta", (0.0, 0.5))
def test_r_tilde_fixed_point(beta):
    config = make_config(nb=1, a=2, c=1)
    r = sim.to_matrix(r_tilde(beta, config))
    assert unitarity_defect(r) < 1e-10
    state = stationary_input(config, beta)
    want = np.exp(1j * np.pi / 3) * state
    assert np.abs(r @ state - want).max() < 1e-8


@pytest.mark.parametrize("a,c", [(3, 2), (3, 1), (2, 1)])
def test_r_tilde_takes_the_walk_on_the_walk_qubits_alone(a, c):
    """W(beta) on the 2nb walk qubits, as `verify` builds it, has the gates
    of the W that `generate` embeds in the whole register, so R~ is the
    same circuit from either."""
    config = make_config(nb=2, a=a, c=c)
    m = metropolis(config.problem, 0.5)
    whole = emit_W(m, config.layout)
    assert emit_W(m, WalkLayout(2)).body == whole.body
    assert r_tilde(0.5, config) == annealer.emit_R_tilde(whole, config)


def test_r_tilde_with_zero_angle_is_identity():
    config = make_config(nb=1, a=1, c=1)
    r = sim.to_matrix(r_tilde(0.5, config, q_angle_deg=0.0))
    np.testing.assert_allclose(r, np.eye(8), atol=1e-12)


def test_grover_depth_zero_is_identity():
    config = make_config()
    circuit = emit_U_grover(0, 0, config)
    assert circuit.body == ()
    np.testing.assert_allclose(sim.to_matrix(circuit), np.eye(8))


def test_grover_depth_one_is_two_reflections():
    config = make_config()
    r_len = len(spliced(r_tilde(0.0, config)).body)
    circuit = emit_U_grover(0, 1, config)
    assert len(spliced(circuit).body) == 2 * r_len
    got = sim.to_matrix(circuit)
    r0 = sim.to_matrix(r_tilde(config.schedule.beta(0), config))
    r1 = sim.to_matrix(r_tilde(config.schedule.beta(1), config))
    np.testing.assert_allclose(got, r0 @ r1, atol=1e-12)


@pytest.mark.parametrize("d", (1, 2))
def test_grover_recursion_matrix_identity(d):
    config = make_config(nb=1, a=1, c=1)
    u_prev = sim.to_matrix(emit_U_grover(0, d - 1, config))
    u_here = sim.to_matrix(emit_U_grover(0, d, config))
    r_here = sim.to_matrix(r_tilde(config.schedule.beta(0), config))
    r_next = sim.to_matrix(r_tilde(config.schedule.beta(1), config))
    want = u_prev @ r_here @ u_prev.conj().T @ r_next @ u_prev
    assert np.abs(u_here - want).max() < 1e-9


def test_grover_conjugate_q_uses_inverse_phase():
    config = make_config(conjugate_q=True)
    got = sim.to_matrix(emit_U_grover(0, 1, config))
    r0 = sim.to_matrix(r_tilde(config.schedule.beta(0), config))
    r1 = sim.to_matrix(r_tilde(config.schedule.beta(1), config, q_angle_deg=-60.0))
    np.testing.assert_allclose(got, r0 @ r1, atol=1e-12)


def test_grover_count_recurrence():
    config = make_config(nb=1, a=2, c=1)
    r_ops = count_elementary_ops(r_tilde(0.0, config))
    counts = [count_elementary_ops(emit_U_grover(0, d, config)) for d in range(3)]
    assert counts[0] == 0
    for d in (0, 1):
        assert counts[d + 1] == 3 * counts[d] + 2 * r_ops


def test_grover_index_bounds():
    config = make_config(t_f=2)
    with pytest.raises(ValueError, match="outside"):
        emit_U_grover(2, 1, config)
    with pytest.raises(ValueError):
        emit_U_grover(-1, 1, config)


def test_full_single_factor_matches_grover():
    config = make_config(t_f=1, d=1)
    assert spliced(emit_full(config)).body == spliced(emit_U_grover(0, 1, config)).body


def test_full_prep_prepends_hadamards():
    config = make_config(nb=1, t_f=1)
    circuit = spliced(emit_full(config, prep=True))
    assert circuit.body[0] == had2(1)
    bare = spliced(emit_full(config))
    assert circuit.body[1:] == bare.body
    # prep maps |0...0> to the lifted uniform stationary state
    prep_only = Circuit(config.num_qubits, (circuit.body[0],))
    state = sim.apply(prep_only, sim.basis_state(config.num_qubits))
    want = walk_state(np.sqrt(boltzmann(config.problem, 0.0)), config.layout)
    np.testing.assert_allclose(state, want, atol=1e-12)


@pytest.mark.parametrize("nb", (1, 2))
def test_full_preserves_normalization_and_reports_overlap(nb):
    config = make_config(nb=nb, a=2, c=1, d=1, delta=0.5, t_f=2)
    mat = sim.to_matrix(emit_full(config))
    start = walk_state(np.sqrt(boltzmann(config.problem, 0.0)), config.layout)
    target = walk_state(np.sqrt(boltzmann(config.problem, 1.0)), config.layout)
    out = mat @ start
    assert abs(np.linalg.norm(out) - 1) < 1e-10
    fidelity = abs(np.vdot(target, out)) ** 2
    assert 0 < fidelity <= 1 + 1e-12


@pytest.mark.parametrize("nb,a,c", [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 2)])
def test_emitted_circuits_are_unitary(nb, a, c):
    config = make_config(nb=nb, a=a, c=c, d=1, t_f=1)
    for circuit in (emit_V(0.5, config), r_tilde(0.5, config),
                    emit_U_grover(0, 1, config), emit_full(config)):
        assert unitarity_defect(sim.to_matrix(circuit)) < 1e-10


def test_pe_params_validation():
    with pytest.raises(ValueError):
        PEParams(0, 1, 1)
    with pytest.raises(ValueError):
        PEParams(1, 0, 1)
    with pytest.raises(ValueError):
        PEParams(1, 1, -1)


# The recursion as first written: every level daggers the whole sequence so
# far, and every R is rebuilt from a fresh V(beta) through dagger.
def reference_r(beta, config, q_angle_deg):
    v = emit_V(beta, config).body
    q = phas(q_angle_deg, [Control(b, on=False) for b in config.probe_bit_list])
    return v + (q,) + dagger(v)


def reference_grover(t, d, config):
    next_angle = -60.0 if config.conjugate_q else 60.0
    seq = ()
    for _ in range(d):
        seq = (seq + reference_r(config.schedule.beta(t + 1), config, next_angle)
               + dagger(seq) + reference_r(config.schedule.beta(t), config, 60.0) + seq)
    return seq


def angle_signs(body):
    return [math.copysign(1.0, a) for ins in body for a in ins.angles_deg]


def assert_same_lines(got, want):
    """Equal line by line, down to the sign of every zero angle."""
    assert got == want
    assert angle_signs(got) == angle_signs(want)


@pytest.mark.parametrize("conjugate_q,c,t_f", [
    (False, 1, 1), (True, 2, 2), (True, 1, 3), (False, 2, 3)])
def test_recursion_matches_redaggering_reference(conjugate_q, c, t_f):
    for d in range(5):
        config = make_config(nb=1, a=1, c=c, d=d, t_f=t_f, conjugate_q=conjugate_q)
        want = [reference_grover(t, d, config) for t in range(t_f)]
        for t in range(t_f):
            seq, seq_dag = (spliced((node,)) for node in _grover_pair(t, d, config, {}))
            assert_same_lines(seq, want[t])
            assert_same_lines(seq_dag, dagger(seq))
        assert_same_lines(spliced(emit_U_grover(t_f - 1, d, config)).body, want[-1])
        prep = tuple(had2(config.nb + j) for j in range(config.nb))
        assert_same_lines(spliced(emit_full(config, prep=True)).body, sum(want, prep))


def test_emit_full_work_does_not_grow_with_depth(monkeypatch):
    """From d=1 to d=4 the body grows 40-fold, but emit_full builds no
    more Instructions and daggers no longer sequence."""
    built = 0
    dagger_lengths = []
    post_init, with_angles, plain_dagger = (Instruction.__post_init__, Instruction.with_angles,
                                            ir.dagger)

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    def counting_with_angles(self, angles_deg):
        nonlocal built
        built += 1
        return with_angles(self, angles_deg)

    def recording_dagger(body):
        dagger_lengths.append(len(body))
        return plain_dagger(body)

    monkeypatch.setattr(Instruction, "__post_init__", counting_post_init)
    monkeypatch.setattr(Instruction, "with_angles", counting_with_angles)
    for module in (ir, annealer, szegedy):
        monkeypatch.setattr(module, "dagger", recording_dagger)

    def work(d):
        nonlocal built
        built = 0
        dagger_lengths.clear()
        length = len(spliced(emit_full(make_config(nb=1, a=2, c=1, d=d, t_f=2))).body)
        return length, built, max(dagger_lengths)

    short, deep = work(1), work(4)
    assert deep[0] > 20 * short[0]
    assert deep[1:] == short[1:]
