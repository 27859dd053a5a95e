"""Simulator gate semantics against hand matrices, scipy's expm and the
kron-built oracle, gate by gate and through the run tables and segment
operators."""
import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from qsagen import sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full, inverse_qft
from qsagen.cli import main
from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Seq, had2, mp_y, p0ph,
                       p1ph, parse_english, phas, rotn, rotx, roty, rotz, sigx, sigy, sigz,
                       swap, with_control, write_english, write_picture)
from qsagen.markov import AnnealingSchedule, default_problem
from qsagen.mux_expander import expand_file, expand_mux

from helpers import (eig_unitary, manual_unroll, oracle_matrix, phases_match, r_tilde, random_body,
                     random_circuit, random_gate, random_run_body, random_run_circuit, scan_steps,
                     unitarity_defect)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def one_qubit_matrix(ins):
    return sim.to_matrix(Circuit(1, (ins,)))


def test_had2_on_zero():
    out = sim.apply(Circuit(1, (had2(0),)), sim.basis_state(1))
    np.testing.assert_allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_swap_on_01():
    # |01> = qubit 0 set, qubit 1 clear -> index 1, swaps to index 2
    out = sim.apply(Circuit(2, (swap(1, 0),)), sim.basis_state(2, 1))
    np.testing.assert_allclose(out, sim.basis_state(2, 2), atol=1e-15)


def test_phas_all_false_controls():
    circuit = Circuit(3, (phas(60.0, (Control(2, False), Control(1, False))),))
    out = sim.apply(circuit, sim.basis_state(3, 0))
    np.testing.assert_allclose(out[0], np.exp(1j * np.pi / 3), atol=1e-15)
    out1 = sim.apply(circuit, sim.basis_state(3, 2))
    np.testing.assert_allclose(out1[2], 1.0, atol=1e-15)


@pytest.mark.parametrize("ctor,generator", [
    (rotx, SX), (roty, SY), (rotz, SZ),
])
def test_axis_rotations_match_expm(ctor, generator):
    for angle in (23.7, -118.0, 360.0):
        got = one_qubit_matrix(ctor(angle, 0))
        want = expm(0.5j * math.radians(angle) * generator)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotn_matches_expm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = rng.uniform(-180, 180, size=3)
        got = one_qubit_matrix(rotn(a, b, c, 0))
        gen = math.radians(a) * SX + math.radians(b) * SY + math.radians(c) * SZ
        np.testing.assert_allclose(got, expm(0.5j * gen), atol=1e-12)
    np.testing.assert_allclose(one_qubit_matrix(rotn(0, 0, 0, 0)), np.eye(2))


def test_pauli_and_phase_gates():
    np.testing.assert_allclose(one_qubit_matrix(sigx(0)), SX)
    np.testing.assert_allclose(one_qubit_matrix(sigy(0)), SY)
    np.testing.assert_allclose(one_qubit_matrix(sigz(0)), SZ)
    np.testing.assert_allclose(
        one_qubit_matrix(p0ph(90.0, 0)), np.diag([1j, 1]), atol=1e-15)
    np.testing.assert_allclose(
        one_qubit_matrix(p1ph(90.0, 0)), np.diag([1, 1j]), atol=1e-15)


def test_mp_y_matches_translation_row():
    """The multiplexor kernel carries the full angle (ROTY carries half)."""
    angles = (30.0, 10.5, 11.0, 83.1)
    ins = mp_y(3, (MuxControl(2, 1), MuxControl(1, 0)), angles, (Control(0, True),))
    got = sim.to_matrix(Circuit(4, (ins,)))
    want = np.eye(16, dtype=complex)
    for idx in range(16):
        if idx & 1 == 0 or idx & 8:  # plain control off, or target already set
            continue
        word = ((idx >> 2) & 1) << 1 | ((idx >> 1) & 1)
        kernel = expm(1j * math.radians(angles[word]) * SY)
        src, dst = idx, idx | 8
        want[src, src], want[dst, src] = kernel[0, 0], kernel[1, 0]
        want[src, dst], want[dst, dst] = kernel[0, 1], kernel[1, 1]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mp_y_zero_angles_is_identity():
    circuit = Circuit(2, (mp_y(1, (MuxControl(0, 0),), (0.0, 0.0)),))
    np.testing.assert_allclose(sim.to_matrix(circuit), np.eye(4), atol=1e-15)


def test_controlled_gate_is_block_diagonal():
    angle = 77.0
    circuit = Circuit(2, (roty(angle, 0, (Control(1, True),)),))
    got = sim.to_matrix(circuit)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = one_qubit_matrix(roty(angle, 0))
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_to_matrix_is_multiplicative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = random_circuit(rng, num_qubits=n, loops=False)
        b = random_circuit(rng, num_qubits=n, loops=False)
        combined = Circuit(n, a.body + b.body)
        np.testing.assert_allclose(
            sim.to_matrix(combined), sim.to_matrix(b) @ sim.to_matrix(a), atol=1e-12)


def test_loops_unroll_in_simulation():
    looped = Circuit(1, (Loop(3, (sigx(0),)),))
    np.testing.assert_allclose(sim.to_matrix(looped), SX, atol=1e-15)
    nested = Circuit(1, (Loop(2, (Loop(2, (rotz(10.0, 0),)),)),))
    np.testing.assert_allclose(
        sim.to_matrix(nested), one_qubit_matrix(rotz(40.0, 0)), atol=1e-13)


ORACLE_SEEDS = range(40)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_to_matrix_matches_kron_oracle(seed):
    circuit = random_circuit(np.random.default_rng(seed))
    np.testing.assert_allclose(
        sim.to_matrix(circuit), oracle_matrix(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_apply_matches_kron_oracle_on_random_states(seed):
    rng = np.random.default_rng(1000 + seed)
    circuit = random_circuit(rng)
    dim = 1 << circuit.num_qubits
    states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    want = oracle_matrix(circuit)
    for state in states:
        before = state.copy()
        np.testing.assert_allclose(
            sim.apply(circuit, state), want @ state, rtol=0, atol=1e-12)
        assert np.array_equal(state, before)


def test_to_matrix_columns_are_apply_on_basis_states():
    rng = np.random.default_rng(7)
    for _ in range(10):
        circuit = random_circuit(rng)
        u = sim.to_matrix(circuit)
        for j in range(u.shape[1]):
            out = sim.apply(circuit, sim.basis_state(circuit.num_qubits, j))
            np.testing.assert_allclose(u[:, j], out, rtol=0, atol=1e-12)


def test_mux_under_off_control_and_controlled_swap_match_oracle():
    mux = (MuxControl(4, 2), MuxControl(0, 0), MuxControl(2, 1))
    angles = (12.0, -47.5, 88.0, 3.25, -160.0, 71.0, 0.5, 133.0)
    circuit = Circuit(5, (
        had2(0), had2(2), had2(4), rotx(40.0, 1), rotn(10.0, -20.0, 30.0, 3),
        mp_y(1, mux, angles, (Control(3, False),)),
        swap(4, 1, (Control(0, True),)),
        mp_y(3, mux, angles[::-1], (Control(1, False),)),
    ))
    np.testing.assert_allclose(
        sim.to_matrix(circuit), oracle_matrix(circuit), rtol=0, atol=1e-12)
    rng = np.random.default_rng(8)
    state = rng.normal(size=32) + 1j * rng.normal(size=32)
    np.testing.assert_allclose(
        sim.apply(circuit, state), oracle_matrix(circuit) @ state, rtol=0, atol=1e-12)


def test_apply_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        circuit = random_circuit(rng)
        state = rng.normal(size=1 << circuit.num_qubits) * (1 + 0j)
        state += 1j * rng.normal(size=state.shape)
        state /= np.linalg.norm(state)
        out = sim.apply(circuit, state)
        assert abs(np.linalg.norm(out) - 1) < 1e-10


def test_circuit_matrices_are_unitary():
    rng = np.random.default_rng(6)
    for _ in range(10):
        circuit = random_circuit(rng)
        assert unitarity_defect(sim.to_matrix(circuit)) < 1e-10


def test_apply_dimension_mismatch():
    for num_qubits, state in ((2, sim.basis_state(3)), (1, np.complex128(1))):
        with pytest.raises(ValueError, match="state has dimension"):
            sim.apply(Circuit(num_qubits, (had2(0),)), state)


def test_to_matrix_qubit_cap():
    with pytest.raises(ValueError, match="at most 12"):
        sim.to_matrix(Circuit(13))


def test_apply_qubit_cap():
    with pytest.raises(ValueError, match="at most 16"):
        sim.apply(Circuit(17), np.zeros(1))


def test_eig_unitary_identity_and_reflection():
    assert np.allclose(eig_unitary(np.eye(4)), 0.0)
    circuit = Circuit(2, (phas(180.0, (Control(1, False), Control(0, False))),))
    phases = eig_unitary(sim.to_matrix(circuit))
    np.testing.assert_allclose(sorted(np.abs(phases)), [0, 0, 0, np.pi], atol=1e-12)


def test_eig_unitary_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        eig_unitary(np.diag([1.0, 0.5]))


def test_phases_match():
    assert phases_match([0.0, 1.0, -1.0], [1.0, 0.0, -1.0])
    assert phases_match([np.pi, 0.0], [-np.pi, 0.0])  # same point on the circle
    assert not phases_match([0.0, 1.0], [0.0, 1.1])
    assert not phases_match([0.0], [0.0, 0.0])


# --- run tables ------------------------------------------------------------------

def assert_matches_oracle(circuit, rng, states=3):
    want = oracle_matrix(circuit)
    np.testing.assert_allclose(sim.to_matrix(circuit), want, rtol=0, atol=1e-12)
    dim = 1 << circuit.num_qubits
    for state in rng.normal(size=(states, dim)) + 1j * rng.normal(size=(states, dim)):
        np.testing.assert_allclose(sim.apply(circuit, state), want @ state, rtol=0, atol=1e-12)


def distinct_tables(circuit):
    """The tables `_evolve` builds: a run's from its second execution, a
    lone multiplexor's from its third."""
    _, runs, _ = sim._plan(circuit.body)
    return sum(run.executions > (2 if len(run.gates) == 1 else 1) for run in runs.values())


@pytest.mark.parametrize("seed", range(40))
def test_run_tables_match_kron_oracle(seed):
    rng = np.random.default_rng(5000 + seed)
    assert_matches_oracle(random_run_circuit(rng), rng)


def test_random_run_bodies_build_tables():
    built = [distinct_tables(random_run_circuit(np.random.default_rng(5000 + seed)))
             for seed in range(40)]
    assert sum(count > 0 for count in built) >= 30


def test_runs_with_equal_opcodes_get_their_own_tables():
    """Two ladders that differ only in their angles and control values."""
    first = [roty(30.0, 0, (Control(2, True),)), sigx(0, (Control(1, True),)),
             roty(-75.0, 0, (Control(2, False),)), sigx(0, (Control(2, True),))]
    second = [roty(110.0, 0, (Control(2, False),)), sigx(0, (Control(1, False),)),
              roty(5.0, 0, (Control(2, True),)), sigx(0, (Control(2, False),))]
    circuit = Circuit(3, (had2(1), had2(2), Loop(2, (*first, had2(1), *second))))
    assert distinct_tables(circuit) == 2
    assert_matches_oracle(circuit, np.random.default_rng(11))


def test_table_words_follow_bit_order():
    """A multiplexor whose angle words read the controls against the bit order."""
    mux = (MuxControl(1, 0), MuxControl(2, 1), MuxControl(3, 2))
    angles = (10.0, 20.0, 40.0, 80.0, -15.0, 33.0, 120.0, -170.0)
    ladder = (mp_y(0, mux, angles), roty(12.0, 0, (Control(3, True),)),
              p1ph(50.0, 0, (Control(1, False),)))
    circuit = Circuit(4, (had2(1), had2(2), had2(3), Loop(3, ladder)))
    assert distinct_tables(circuit) == 1
    assert_matches_oracle(circuit, np.random.default_rng(12))


LONE_MUX = mp_y(0, (MuxControl(2, 1), MuxControl(1, 0)), (35.0, -120.0, 64.5, 171.0))
CONTROLLED_MUX = replace(LONE_MUX, controls=(Control(3, False),))


@pytest.mark.parametrize("body,tables", [
    ((LONE_MUX, had2(3), LONE_MUX, had2(3), LONE_MUX), 1),
    ((CONTROLLED_MUX, had2(3), CONTROLLED_MUX, had2(3), CONTROLLED_MUX), 1),
    ((LONE_MUX, had2(3), LONE_MUX), 0),
    ((had2(3), LONE_MUX, had2(3)), 0),
    ((Loop(3, (LONE_MUX, had2(3))),), 0),
    ((Loop(3, (LONE_MUX, had2(3))), had2(2), LONE_MUX, had2(3), LONE_MUX), 1),
], ids=["thrice", "thrice-plain-control", "twice", "once", "thrice-in-a-build",
        "once-in-a-build-twice-outside"])
def test_lone_multiplexor_gets_a_table_from_its_third_execution(body, tables, monkeypatch):
    """A segment operator's build runs its steps once, however often the
    segment executes: inside it a multiplexor counts one execution."""
    circuit = Circuit(4, (had2(1), had2(2), *body))
    built, table = [], sim._table
    monkeypatch.setattr(sim, "_table", lambda run, *args: built.append(run) or table(run, *args))
    sim.to_matrix(circuit)
    assert len(built) == tables
    assert_matches_oracle(circuit, np.random.default_rng(16))


def kernel_table(run):
    """The kernel on the identity, with a table axis for every operand bit of
    the run: (those bits, descending; U_w[i, j] in shape (2,)*k + (2, 2))."""
    bits = sorted({b for ins in run for b in ins.operand_bits[1:]}, reverse=True)
    u = np.zeros((2,) * len(bits) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = 1
    table_axis = {b: i - len(bits) - 2 for i, b in enumerate(bits)}
    table_axis[run[0].targets[0]] = -2
    for ins in run:
        sim._apply_gate(u, ins, table_axis)
    return bits, u


def assert_table_matches_kernel(run, n):
    """`_table` for an n-qubit state vector pins the controls that every gate
    shares, gives each other operand bit a table axis, matches the kernel's
    table at the pinned values, and reports the run's operand bits and the
    (on, off) masks of the controls that every gate shares."""
    axis = tuple(-1 - b for b in range(n))
    bits, pins, (index0, index1, *entries) = sim._table(run, axis, n)
    assert bits == sum({1 << b for ins in run for b in ins.operand_bits})
    target = run[0].targets[0]
    shared = set.intersection(*(set(ins.controls) for ins in run))
    assert pins == (sum(1 << c.bit for c in shared if c.on),
                    sum(1 << c.bit for c in shared if not c.on))
    assert index0[axis[target]] == slice(0, 1) and index1[axis[target]] == slice(1, 2)
    for b in range(n):
        pin = next((slice(int(c.on), int(c.on) + 1) for c in shared if c.bit == b), slice(None))
        assert index0[axis[b]] == pin or b == target
        assert index1[axis[b]] == pin or b == target
    bits, u = kernel_table(run)
    pinned = {c.bit: int(c.on) for c in shared}
    want = u[tuple(pinned.get(b, slice(None)) for b in bits)]
    free = [b for b in bits if b not in pinned]
    for entry, (i, j) in zip(entries, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert entry.shape == tuple(2 if n - 1 - a in free else 1 for a in range(n))
        np.testing.assert_allclose(entry.reshape(want.shape[:-2]), want[..., i, j],
                                   rtol=0, atol=1e-12)


def random_real_run(rng, n):
    """ROTY, SIGX and MP_Y gates on one target: random plain controls, on and
    off, often one control that every gate shares, signed zeros and angles up
    to 1e4 degrees."""
    target = int(rng.integers(n))
    others = [int(b) for b in rng.permutation(n) if b != target]
    shared = []
    if len(others) > 1 and rng.random() < 0.7:
        shared.append(Control(others.pop(), bool(rng.integers(2))))
    angle = lambda: float(rng.choice([0.0, -0.0, *rng.uniform(-1e4, 1e4, size=4)]))
    run = []
    for _ in range(int(rng.integers(1, 13))):
        free = [int(b) for b in rng.permutation(others)]
        plain = lambda bits: shared + [Control(b, bool(rng.integers(2)))
                                       for b in bits[:rng.integers(0, min(2, len(bits)) + 1)]]
        kind = rng.integers(3)
        if kind == 0:
            run.append(sigx(target, plain(free)))
        elif kind == 1 or not free:
            run.append(roty(angle(), target, plain(free)))
        else:
            k = int(rng.integers(1, min(3, len(free)) + 1))
            mux = [MuxControl(b, name) for name, b in enumerate(free[:k])]
            run.append(mp_y(target, mux, [angle() for _ in range(1 << k)], plain(free[k:])))
    return run


@pytest.mark.parametrize("seed", range(60))
def test_closed_form_tables_match_kernel_and_oracle(seed):
    rng = np.random.default_rng(9000 + seed)
    n = int(rng.integers(2, 6))
    run = random_real_run(rng, n)
    assert_table_matches_kernel(run, n)
    assert_matches_oracle(Circuit(n, (*[had2(b) for b in range(n)], Loop(3, run))), rng, states=2)


@pytest.mark.parametrize("plain", [(), (Control(0, False),)], ids=["bare", "off-control"])
@pytest.mark.parametrize("k", range(1, 9))
def test_ladder_tables_match_kernel_and_multiplexor(k, plain):
    """Every ladder the expander builds is the multiplexor it expands."""
    rng = np.random.default_rng(k)
    n = k + 1 + len(plain)
    bits = [int(b) for b in rng.permutation(range(len(plain), n))]
    mux = mp_y(bits[0], [MuxControl(b, name) for name, b in enumerate(bits[1:])],
               rng.uniform(-1e4, 1e4, size=1 << k), plain)
    ladder = expand_mux(mux)
    assert_table_matches_kernel(ladder, n)
    circuit = Circuit(n, (Loop(2, ladder),))
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    want = gate_by_gate(Circuit(n, (mux, mux)), state)[:, 0]
    np.testing.assert_allclose(sim.apply(circuit, state), want, rtol=0, atol=1e-12)
    if k <= 5:
        np.testing.assert_allclose(sim.to_matrix(circuit),
                                   oracle_matrix(Circuit(n, (mux, mux))), rtol=0, atol=1e-12)


def test_shared_control_is_pinned_and_mixed_control_is_not():
    """Bit 3 is on in every gate: pinned, no table axis.  Bit 2 is on in one
    gate and off in another: a table axis."""
    run = [roty(40.0, 0, (Control(3), Control(2))), sigx(0, (Control(3), Control(1))),
           roty(-75.0, 0, (Control(3), Control(2, False)))]
    index0, index1, *entries = sim._table(run, (-1, -2, -3, -4), 4)[2]
    assert index0[-4] == index1[-4] == slice(1, 2)
    assert index0[-3] == index0[-2] == slice(None)
    assert all(entry.shape == (1, 2, 2, 1) for entry in entries)
    assert_table_matches_kernel(run, 4)
    assert_matches_oracle(Circuit(4, (*[had2(b) for b in range(4)], Loop(2, run))),
                          np.random.default_rng(19))


def test_closed_form_reduces_angles_by_whole_periods():
    """ROTY has period 720 degrees and MP_Y 360: angles that differ by whole
    periods give the same table, however large (each angle here is exact)."""
    periods = 2.0 ** 40
    mux = (MuxControl(1, 0), MuxControl(2, 1))

    def run(turns):
        return [roty(30.25 + 720.0 * turns, 0, (Control(1),)), sigx(0, (Control(2),)),
                mp_y(0, mux, [a + 360.0 * turns for a in (10.5, -97.25, 170.0, -3.125)]),
                roty(-101.5 - 720.0 * turns, 0)]

    axis = (-1, -2, -3)
    for got, want in zip(sim._table(run(periods), axis, 3)[2][2:],
                         sim._table(run(0), axis, 3)[2][2:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("run", [
    [roty(25.0, 0, (Control(1),)), sigx(0, (Control(1),)), roty(-60.0, 0)],
    [mp_y(0, (MuxControl(1, 0),), (35.0, -120.0))],
], ids=["ladder", "multiplexor"])
def test_only_runs_of_roty_sigx_and_mp_y_skip_the_kernel(run, monkeypatch):
    calls, gate = [], sim._apply_gate
    monkeypatch.setattr(sim, "_apply_gate", lambda *args: calls.append(args) or gate(*args))
    sim._table(run, (-1, -2), 2)
    assert not calls
    monkeypatch.undo()
    assert_table_matches_kernel(run, 2)


def test_had2_and_p1ph_split_runs_and_stand_alone():
    """Only ROTY, SIGX and MP_Y gates form runs: a HAD2 or P1PH on the same
    target ends one, and is a step by itself, so the inverse QFT has none."""
    a, b = roty(25.0, 0, (Control(1),)), sigx(0, (Control(1),))
    h, p = had2(0, (Control(1),)), p1ph(30.0, 0, (Control(1),))
    steps = sim._steps((a, b, h, a, p, b, a, h, h), {})
    assert [type(step).__name__ for step in steps] == [
        "_Run", "Instruction", "Instruction", "Instruction", "_Run", "Instruction", "Instruction"]
    assert steps[0].gates == (a, b) and steps[4].gates == (b, a)
    assert steps[1] is h and steps[2] is a and steps[3] is p and steps[5] is steps[6] is h
    _, runs, _ = sim._plan(Circuit(3, (Loop(3, inverse_qft(range(3))),)).body)
    assert not runs


def test_runs_stop_at_loop_markers():
    a, b, c = roty(40.0, 0, (Control(1, True),)), sigx(0, (Control(1, True),)), had2(0)
    circuit = Circuit(2, (had2(1), a, b, Loop(3, (c, a, b)), b, a, Loop(2, (a, b)), c))
    assert_matches_oracle(circuit, np.random.default_rng(13))


def test_run_controlled_on_every_other_qubit():
    n = 5
    run = [sigx(2, (Control(b, b % 2 == 0),)) for b in range(n) if b != 2]
    run += [mp_y(2, (MuxControl(4, 0), MuxControl(0, 1)), (15.0, -40.0, 95.0, 170.0),
                 (Control(1, True), Control(3, False))),
            rotn(10.0, 20.0, -30.0, 2, (Control(0, True), Control(1, False)))]
    circuit = Circuit(n, (*[had2(b) for b in range(n)], Loop(2, run), *run))
    assert distinct_tables(circuit) == 1
    assert_matches_oracle(circuit, np.random.default_rng(14))


def test_parsed_repeats_share_one_table():
    """Equal lines parse to one object, so a ladder repeated in the text and
    in a loop builds one table; an equal copy made apart builds its own."""
    ladder = [roty(25.0, 1, (Control(0, True),)), sigx(1, (Control(0, True),)),
              roty(-60.0, 1, (Control(0, False),))]
    text = write_english(Circuit(2, (had2(0), *ladder, Loop(2, ladder))))
    parsed = parse_english(text)
    assert distinct_tables(parsed) == 1
    copy = [replace(ins) for ins in ladder]
    copied = Circuit(2, (*ladder, had2(0), *ladder, had2(0), *copy, had2(0), *copy))
    assert distinct_tables(copied) == 2
    rng = np.random.default_rng(15)
    assert_matches_oracle(parsed, rng)
    assert_matches_oracle(copied, rng)


def test_expanded_and_multiplexor_files_agree(tmp_path, monkeypatch, capsys):
    """The expanded file's segments are made of run tables, the
    multiplexor-level file's of gates and lone multiplexors: the two must
    give the same states."""
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--prefix", "x", "--nb", "2", "--probe-bits", "2",
                 "--pe-steps", "1", "--grover-depth", "1", "--num-betas", "3",
                 "--delta-beta", "0.5", "--prep"]) == 0
    assert main(["expand", "--in-prefix", "x_qsann", "--out-prefix", "x_flat"]) == 0
    capsys.readouterr()
    mux = parse_english((tmp_path / "x_qsann_eng.txt").read_text())
    flat = parse_english((tmp_path / "x_flat_eng.txt").read_text())
    assert flat.num_qubits == mux.num_qubits == 6
    assert distinct_tables(flat) > 0
    for index in (0, 5, 17, 42, 63):
        state = sim.basis_state(6, index)
        np.testing.assert_allclose(sim.apply(flat, state), sim.apply(mux, state),
                                   rtol=0, atol=1e-12)


# --- segment operators -----------------------------------------------------------

def gate_by_gate(circuit, amp):
    """The kernel on every gate of the literally unrolled body: no tables, no
    segment operators, and the column axis last."""
    n = circuit.num_qubits
    amp = np.array(amp, dtype=complex).reshape(1 << n, -1)
    psi = amp.reshape((2,) * n + (amp.shape[1],))
    axis = tuple(range(-2, -n - 2, -1))
    for ins in manual_unroll(circuit.body):
        sim._apply_gate(psi, ins, axis)
    return amp


def test_apply_equals_gate_by_gate_on_the_deep_flow():
    """The multiplexor-level file of the `deep` bench flow, (2,2,1,4) with
    state preparation and 19,042 executed ops, against every gate of its
    unrolled body."""
    config = GeneratorConfig(default_problem(2), PEParams(2, 1, 4), AnnealingSchedule(0.5, 2))
    circuit = parse_english(write_english(emit_full(config, prep=True)))
    assert len(circuit) == 13922
    state = sim.basis_state(circuit.num_qubits)
    np.testing.assert_allclose(sim.apply(circuit, state), gate_by_gate(circuit, state)[:, 0],
                               rtol=0, atol=1e-12)


def record_operators(monkeypatch, describe):
    """`describe(segment, psi)` of every segment operator built from now on,
    taken as `_blocks` receives the segments, once their operators are chosen."""
    built, blocks = [], sim._blocks

    def record(segments, psi, *args):
        built.extend(describe(segment, psi) for segment in segments.values()
                     if segment.operator is not None)
        return blocks(segments, psi, *args)

    monkeypatch.setattr(sim, "_blocks", record)
    return built


def count_operators(monkeypatch):
    """The steps of every segment operator built from now on."""
    return record_operators(monkeypatch, lambda segment, psi: list(segment.steps))


def random_segment_circuit(seed):
    rng = np.random.default_rng(7000 + seed)
    if seed % 2:
        return random_run_circuit(rng), rng
    n = int(rng.integers(2, 6))
    return Circuit(n, (*random_body(rng, n), Loop(int(rng.integers(2, 4)), random_body(rng, n)))), rng


@pytest.mark.parametrize("seed", range(40))
def test_segment_operators_match_gate_by_gate_and_oracle(seed):
    circuit, rng = random_segment_circuit(seed)
    dim = 1 << circuit.num_qubits
    want = oracle_matrix(circuit)
    got = sim.to_matrix(circuit)
    np.testing.assert_allclose(got, gate_by_gate(circuit, np.eye(dim)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for state in rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)):
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)


@pytest.mark.parametrize("run", [lambda c: sim.apply(c, sim.basis_state(c.num_qubits)),
                                 sim.to_matrix], ids=["apply", "to_matrix"])
def test_random_bodies_build_segment_operators(run, monkeypatch):
    built = count_operators(monkeypatch)
    counts = []
    for seed in range(40):
        before = len(built)
        run(random_segment_circuit(seed)[0])
        counts.append(len(built) - before)
    assert sum(count > 0 for count in counts) >= 30


def test_segment_repeated_in_loops_and_in_the_text_gets_one_operator(monkeypatch):
    """A segment written twice between Loops and once as a Loop's body parses
    to the same objects, so it is one segment of five executions."""
    segment = (roty(25.0, 1, (Control(0, True),)), sigx(1, (Control(0, True),)),
               mp_y(3, (MuxControl(1, 0), MuxControl(5, 1)), (10.0, -35.0, 70.0, 125.0)),
               rotn(10.0, 20.0, -30.0, 4, (Control(2, False),)), had2(5))
    apart = Loop(1, (p1ph(40.0, 2),))
    circuit = parse_english(write_english(Circuit(6, (
        apart, *segment, apart, *segment, Loop(3, segment)))))
    built = count_operators(monkeypatch)
    state = np.random.default_rng(17).normal(size=64) + 0j
    got = sim.apply(circuit, state)
    assert len(built) == 1 and len(built[0]) == 4   # two runs, ROTN, HAD2
    _, _, segments = sim._plan(circuit.body)
    assert sorted(s.executions for s in segments.values()) == [2, 5]
    np.testing.assert_allclose(got, oracle_matrix(circuit) @ state, rtol=0, atol=1e-12)


def segment_qubits(segment, psi):
    """The qubits (descending) of a segment operator: all of them if it has
    no view of the state, else the bits whose axes lead its view, found by
    their strides (bit b on axis n - 1 - b)."""
    n = psi.ndim - 1
    if segment.view is None:
        return list(range(n - 1, -1, -1))
    k = len(segment.operator).bit_length() - 1
    return [n - 1 - psi.strides[:n].index(stride) for stride in segment.view.strides[:k]]


def operator_qubits(monkeypatch):
    """`segment_qubits` of every segment operator built from now on."""
    return record_operators(monkeypatch, segment_qubits)


def operator_pins(monkeypatch):
    """(its matrix, the matrix's rows, its qubits, its pins) of every
    segment operator built from now on.  The pins map each bit
    that its view of the state pins to that bit's value: the bit by the
    stride of a size-1 axis behind the leading ones (the columns' axis,
    last, left out), the value by the view's offset into the state."""
    def describe(segment, psi):
        n = psi.ndim - 1
        qubits = segment_qubits(segment, psi)
        view = psi if segment.view is None else segment.view
        bit = {stride: n - 1 - axis for axis, stride in enumerate(psi.strides[:n])}
        offset = view.__array_interface__["data"][0] - psi.__array_interface__["data"][0]
        pins = {bit[stride]: offset // stride & 1
                for size, stride in zip(view.shape[len(qubits):-1], view.strides[len(qubits):-1])
                if size == 1}
        return segment.operator, len(segment.operator), qubits, pins
    return record_operators(monkeypatch, describe)


def by_matrix(built):
    """`operator_pins` records grouped by the identity of their matrix, which
    `built` keeps alive: the rows, qubits and pins of each."""
    groups = {}
    for matrix, rows, qubits, pins in built:
        groups.setdefault(id(matrix), []).append((rows, qubits, pins))
    return list(groups.values())


def generated(flow):
    """The circuit that `generate --prep` writes for (nb, a, c, d) and 3 betas."""
    nb, a, c, d = flow
    circuit = emit_full(GeneratorConfig(default_problem(nb), PEParams(a, c, d),
                                        AnnealingSchedule(0.5, 2)), prep=True)
    assert circuit.num_qubits == 2 * nb + a * c
    return circuit


def test_wide_circuit_gets_no_operator_above_three_qubits(monkeypatch):
    """At 11 qubits an operator on more than 3 qubits costs more to build
    than its products save."""
    circuit = generated((4, 3, 1, 1))
    built = operator_qubits(monkeypatch)
    sim.apply(circuit, sim.basis_state(circuit.num_qubits))
    sim.apply(parse_english(write_english(circuit)), sim.basis_state(circuit.num_qubits))
    assert built == [[10, 9, 8]]   # the parsed file's; the emitted tree has none


def test_phase_estimation_loops_share_one_pinned_walk_operator(monkeypatch):
    """At (nb, a, c) = (2, 3, 2) each controlled power W^(2^j), j > 0, of
    phase estimation is a loop over a segment of W's gates, each with its
    probe bit as one more control: four in V and four in V-dagger for each
    of the three betas.  The four of V are equal gate for gate once that
    control is removed, as are those of V-dagger, so each four share one
    16x16 operator on the 2nb walk bits, built once, and each applies it to
    the state with its probe bit pinned at 1.  This checks the plan, not the
    numbers; the differential tests below check those."""
    nb, a, c = 2, 3, 2
    circuit = generated((nb, a, c, 1))
    built = operator_pins(monkeypatch)
    sim.apply(circuit, sim.basis_state(circuit.num_qubits))
    walk = list(reversed(range(2 * nb)))
    probes = [2 * nb + a * k + j for k in range(c) for j in range(1, a)]
    groups = by_matrix(built)
    assert len(groups) == 6 and len(built) == 24
    for group in groups:
        assert sorted(group, key=str) == sorted([(16, walk, {probe: 1}) for probe in probes],
                                                key=str)


def random_state(rng, n):
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


@pytest.mark.parametrize("flow", [(1, 2, 2), (2, 3, 2), (2, 4, 2)])
def test_shared_walk_operators_match_gate_by_gate(flow, monkeypatch):
    """R~(0.5), as `verify` applies it, against every gate of its unrolled
    body: its controlled walk powers run as pinned operators, each shared
    by the copies of V or of V-dagger."""
    nb, a, c = flow
    circuit = r_tilde(0.5, GeneratorConfig(default_problem(nb), PEParams(a, c, 1),
                                           AnnealingSchedule(0.5, 1)))
    built = operator_pins(monkeypatch)
    state = random_state(np.random.default_rng(19), circuit.num_qubits)
    got = sim.apply(circuit, state)
    groups = by_matrix(built)
    assert len(groups) == 2 and all(len(group) == c * (a - 1) for group in groups)
    assert all(pins for group in groups for _, _, pins in group)
    np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("expanded", [False, True], ids=["mux", "expanded"])
def test_verify_flow_files_share_pinned_operators(expanded, monkeypatch):
    """The multiplexor-level and the expanded file of the `verify` bench
    flow, (2,3,2,1) with state preparation, against every gate of their
    unrolled bodies; in both, the copies of a controlled walk power share
    pinned operators."""
    circuit = generated((2, 3, 2, 1))
    english = write_english(circuit)
    if expanded:
        _, english, _ = expand_file(english, write_picture(circuit))
    circuit = parse_english(english)
    built = operator_pins(monkeypatch)
    state = random_state(np.random.default_rng(20), circuit.num_qubits)
    got = sim.apply(circuit, state)
    assert any(len(group) > 1 and all(pins for _, _, pins in group) for group in by_matrix(built))
    np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)


WALK_LIKE = (phas(180.0, (Control(0, False), Control(1, False))),
             mp_y(2, (MuxControl(0, 0), MuxControl(1, 1)), (20.0, -35.0, 70.0, 125.0)),
             mp_y(3, (MuxControl(2, 0),), (15.0, -60.0)),
             swap(0, 2), swap(1, 3),
             roty(40.0, 1, (Control(0, True),)), sigx(1, (Control(3, True),)), roty(-25.0, 1),
             p1ph(33.0, 0, (Control(2, False),)), had2(3))
PROBES = (Control(4), Control(5), Control(6, False))


def replaced(body, i, gate):
    return body[:i] + (gate,) + body[i + 1:]


def probe_copies(copies):
    """Copies of a body, each under its probe, looped 2, 4 and 2 times on 7
    qubits."""
    return Circuit(7, (*[had2(b) for b in range(7)], Loop(2, copies[0]), Loop(4, copies[1]),
                       had2(0), Loop(2, copies[2])))


@pytest.mark.parametrize("case", ["equal", "angle", "control", "missing"])
def test_only_copies_equal_but_for_their_pins_share(case, monkeypatch):
    """Three copies of a body under three probes share one operator only
    where they are equal gate for gate once the probe is removed: a copy
    with one angle changed, or with another control of one gate flipped,
    gets its own; one where a gate lacks the probe pins nothing, so its
    operator spans the probe too."""
    copies = [with_control(WALK_LIKE, probe) for probe in PROBES]
    if case == "angle":
        copies[2] = with_control(replaced(WALK_LIKE, 5, roty(41.0, 1, (Control(0, True),))),
                                 PROBES[2])
    elif case == "control":
        copies[2] = with_control(replaced(WALK_LIKE, 5, roty(40.0, 1, (Control(0, False),))),
                                 PROBES[2])
    elif case == "missing":
        copies[1] = with_control(WALK_LIKE[:-1], PROBES[1]) + WALK_LIKE[-1:]
    circuit = probe_copies(copies)
    built = operator_pins(monkeypatch)
    state = random_state(np.random.default_rng(21), 7)
    got = sim.apply(circuit, state)
    np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, oracle_matrix(circuit) @ state, rtol=0, atol=1e-12)
    walk = [3, 2, 1, 0]
    groups = sorted(by_matrix(built), key=len, reverse=True)
    if case == "equal":
        assert groups == [[(16, walk, {4: 1}), (16, walk, {5: 1}), (16, walk, {6: 0})]]
    elif case == "missing":
        assert groups == [[(16, walk, {4: 1}), (16, walk, {6: 0})], [(32, [5, *walk], {})]]
    else:
        assert groups == [[(16, walk, {4: 1}), (16, walk, {5: 1})], [(16, walk, {6: 0})]]


def random_probe_copies(seed):
    """A random body on 4 qubits (PHAS on its controls alone included),
    written under three probes, some copies with one gate changed or its
    probe dropped, each looped 1 to 4 times between Hadamards."""
    rng = np.random.default_rng(9900 + seed)
    body = tuple(random_body(rng, 4, max_items=6, loops=False)) + (
        phas(float(rng.uniform(-180.0, 180.0)), (Control(int(rng.integers(4)), True),)),)
    copies = []
    for probe in (Control(4), Control(5, False), Control(6)):
        copy = with_control(body, probe)
        if rng.random() < 0.3:
            i = int(rng.integers(len(body)))
            copy = replaced(copy, i, random_gate(rng, 4) if rng.random() < 0.5 else body[i])
        copies.append(Loop(int(rng.integers(1, 5)), copy))
    return Circuit(7, tuple(x for copy in copies for x in (*[had2(b) for b in range(7)], copy)))


@pytest.mark.parametrize("seed", range(30))
def test_random_probe_copies_match_gate_by_gate_and_oracle(seed, monkeypatch):
    circuit = random_probe_copies(seed)
    built = operator_pins(monkeypatch)
    want = oracle_matrix(circuit)
    np.testing.assert_allclose(sim.to_matrix(circuit), want, rtol=0, atol=1e-12)
    state = random_state(np.random.default_rng(seed), 7)
    got = sim.apply(circuit, state)
    np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)


def test_random_probe_copies_share_pinned_operators(monkeypatch):
    built = operator_pins(monkeypatch)
    for seed in range(30):
        sim.apply(random_probe_copies(seed), sim.basis_state(7))
    assert sum(len(group) > 1 for group in by_matrix(built)) >= 10


def test_copies_that_pin_every_operand_share_a_phase(monkeypatch):
    """Phases on the subspace their controls select pin all their bits: the
    copies share a 1x1 operator, a phase on each copy's pinned view."""
    controls = (Control(0), Control(2, False))
    circuit = probe_copies([with_control((phas(30.0, controls), phas(45.0, controls)), probe)
                            for probe in PROBES])
    built = operator_pins(monkeypatch)
    state = random_state(np.random.default_rng(22), 7)
    got = sim.apply(circuit, state)
    assert by_matrix(built) == [[(1, [], {0: 1, 2: 0, 4: 1}), (1, [], {0: 1, 2: 0, 5: 1}),
                                 (1, [], {0: 1, 2: 0, 6: 0})]]
    np.testing.assert_allclose(got, oracle_matrix(circuit) @ state, rtol=0, atol=1e-12)


def test_deep_flow_keeps_its_whole_register_operators(monkeypatch):
    """At 6 qubits a product with the whole register is cheaper than the
    transpose that an operator on 5 of them would need."""
    circuit = parse_english(write_english(generated((2, 2, 1, 4))))
    built = operator_qubits(monkeypatch)
    sim.apply(circuit, sim.basis_state(circuit.num_qubits))
    assert built == [list(range(5, -1, -1))] * 12


def test_to_matrix_prices_its_products_as_matrix_products(monkeypatch):
    """A product over the 2^n columns of `to_matrix` costs about 0.2 ns per
    operator entry and column, not a matvec's 0.5 ns: a segment of 8 steps
    on all 7 qubits that executes 6 times gets an operator there (2.7 against
    3.7 ms step by step, on 2 vCPUs with one BLAS thread), and none in `apply`."""
    circuit = Circuit(7, (Loop(6, (*[had2(b) for b in range(7)], rotx(40.0, 0))),))
    built = operator_qubits(monkeypatch)
    np.testing.assert_allclose(sim.to_matrix(circuit), oracle_matrix(circuit), rtol=0, atol=1e-12)
    assert built == [list(range(6, -1, -1))]
    sim.apply(circuit, sim.basis_state(7))
    assert len(built) == 1


def on_bits(body, bits):
    """A body on len(bits) qubits moved onto `bits`: qubit i becomes bits[i]."""
    def move(node):
        if type(node) is Loop:
            return Loop(node.reps, tuple(map(move, node.body)))
        return replace(node, targets=tuple(bits[t] for t in node.targets),
                       controls=tuple(Control(bits[c.bit], c.on) for c in node.controls),
                       mux_controls=tuple(MuxControl(bits[m.bit], m.name)
                                          for m in node.mux_controls))
    return list(map(move, body))


def random_support_circuit(seed):
    """A circuit on 6 or 7 qubits whose repeated segments act on a strict,
    non-contiguous subset of them that holds the top and the bottom bit, with
    a repeated segment of uncontrolled PHAS gates, which acts on none."""
    rng = np.random.default_rng(8000 + seed)
    n = int(rng.integers(6, 8))
    middle = rng.permutation(range(1, n - 1))[:rng.integers(0, n - 3)]
    bits = [0, *sorted(int(b) for b in middle), n - 1]
    body = random_run_body(rng, len(bits), max_parts=4) if seed % 2 else random_body(
        rng, len(bits), max_items=4) + [random_gate(rng, len(bits)) for _ in range(3)]
    body = on_bits(body, bits)
    phases = tuple(phas(float(rng.uniform(-180.0, 180.0))) for _ in range(4))
    return Circuit(n, (*[had2(b) for b in range(n)], Loop(int(rng.integers(2, 5)), body),
                       Loop(3, phases), Loop(2, body))), bits, rng


@pytest.mark.parametrize("seed", range(20))
def test_support_operators_match_gate_by_gate_and_oracle(seed, monkeypatch):
    circuit, bits, rng = random_support_circuit(seed)
    n = circuit.num_qubits
    dim = 1 << n
    want = oracle_matrix(circuit)
    built = operator_qubits(monkeypatch)
    got = sim.to_matrix(circuit)
    np.testing.assert_allclose(got, gate_by_gate(circuit, np.eye(dim)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for state in rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)):
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)
    # Each operator acts on the qubits its segment touches, or on them all.
    assert [] in built
    assert all(set(qubits) <= set(bits) or len(qubits) == n for qubits in built)


@pytest.mark.parametrize("run", [lambda c: sim.apply(c, sim.basis_state(c.num_qubits)),
                                 sim.to_matrix], ids=["apply", "to_matrix"])
def test_random_support_circuits_build_support_operators(run, monkeypatch):
    built = operator_qubits(monkeypatch)
    counts = []
    for seed in range(20):
        before = len(built)
        circuit = random_support_circuit(seed)[0]
        run(circuit)
        counts.append(sum(0 < len(qubits) < circuit.num_qubits for qubits in built[before:]))
    assert sum(count > 0 for count in counts) >= 17


def test_apply_equals_gate_by_gate_on_the_verify_flow():
    """The multiplexor-level file of the `verify` bench flow, (2,3,2,1) with
    state preparation, on 10 qubits, against every gate of its unrolled body:
    its phase-estimation loops run as operators on 5 of the 10 qubits."""
    circuit = parse_english(write_english(generated((2, 3, 2, 1))))
    assert len(circuit) == 1078
    state = sim.basis_state(circuit.num_qubits)
    np.testing.assert_allclose(sim.apply(circuit, state), gate_by_gate(circuit, state)[:, 0],
                               rtol=0, atol=1e-12)


def test_apply_equals_gate_by_gate_on_the_wide_flow():
    """The multiplexor-level file of the `wide` bench flow, (4,3,1,1) with
    state preparation, on 11 qubits, against every gate of its unrolled
    body: its segments that execute once run step by step on the state, with
    each of their HAD2 and P1PH gates a kernel step by itself."""
    circuit = parse_english(write_english(generated((4, 3, 1, 1))))
    assert len(circuit) == 928
    state = sim.basis_state(circuit.num_qubits)
    np.testing.assert_allclose(sim.apply(circuit, state), gate_by_gate(circuit, state)[:, 0],
                               rtol=0, atol=1e-12)


def test_apply_with_operators_is_pure_and_repeatable(monkeypatch):
    rng = np.random.default_rng(18)
    circuit = random_run_circuit(rng)
    circuit = Circuit(circuit.num_qubits, (Loop(3, circuit.body),))
    built = count_operators(monkeypatch)
    state = rng.normal(size=1 << circuit.num_qubits) + 0j
    before = state.copy()
    first = sim.apply(circuit, state)
    assert np.array_equal(state, before)
    second = sim.apply(circuit, state)
    assert built and len(built) % 2 == 0  # each call builds its own operators
    assert np.array_equal(first, second)


# --- SWAP runs and blocks --------------------------------------------------------

def test_swaps_with_identical_controls_form_one_step():
    """Consecutive SWAPs with equal controls are one _Swaps, shared by its
    gates' identities and counted like a run; a SWAP with other controls
    starts another, and a lone SWAP is one too, so no SWAP is a kernel step."""
    a, b = swap(0, 1, (Control(3),)), swap(1, 2, (Control(3),))
    c, h = swap(0, 2, (Control(3, False),)), had2(0)
    steps = sim._steps((a, b, c, a, h, a, b), {})
    assert [type(step).__name__ for step in steps] == [
        "_Swaps", "_Swaps", "_Swaps", "Instruction", "_Swaps"]
    assert steps[0].gates == (a, b) and steps[1].gates == (c,) and steps[2].gates == (a,)
    assert steps[3] is h and steps[4] is steps[0]
    _, runs, segments = sim._plan(Circuit(4, (Loop(3, (a, b, h)), a, b)).body)
    assert not runs
    shared, = {id(step): step for segment in segments.values() for step in segment.steps
               if type(step) is sim._Swaps}.values()
    assert tuple(shared.gates) == (a, b) and shared.executions == 4


def random_swap_circuit(seed):
    """Runs of SWAPs under shared controls, with chained pairs (a b, then
    b c), between rotations that mix the state, inside Loops and out."""
    rng = np.random.default_rng(9500 + seed)
    n = int(rng.integers(3, 7))
    body = [rotx(float(rng.uniform(-180.0, 180.0)), b) for b in range(n)]
    for _ in range(int(rng.integers(1, 4))):
        bits = [int(b) for b in rng.permutation(n)]
        controls = [Control(b, bool(rng.integers(2)))
                    for b in bits[:rng.integers(0, min(2, n - 3) + 1)]]
        free = bits[len(controls):]
        run = []
        for _ in range(int(rng.integers(1, 6))):
            if run and rng.random() < 0.5:  # chained: shares a line with the last one
                lo = run[-1].targets[int(rng.integers(2))]
                hi = int(rng.choice([b for b in free if b != lo]))
            else:
                hi, lo = (int(b) for b in rng.choice(free, size=2, replace=False))
            run.append(swap(hi, lo, controls))
        gates = [*run, rotn(*rng.uniform(-180.0, 180.0, size=3), int(rng.integers(n)))]
        body.append(Loop(int(rng.integers(1, 4)), gates) if rng.random() < 0.6 else gates[0])
        body.extend(run)
    return Circuit(n, tuple(body)), rng


@pytest.mark.parametrize("seed", range(20))
def test_swap_runs_match_gate_by_gate_and_oracle(seed):
    circuit, rng = random_swap_circuit(seed)
    _, _, segments = sim._plan(circuit.body)
    assert any(type(step) is sim._Swaps for s in segments.values() for step in s.steps)
    dim = 1 << circuit.num_qubits
    want = oracle_matrix(circuit)
    got = sim.to_matrix(circuit)
    np.testing.assert_allclose(got, gate_by_gate(circuit, np.eye(dim)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for state in rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)):
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)


def test_state_and_builds_share_one_layout(monkeypatch):
    """`_run_steps` gets tensors of n + 1 axes, each bit's of size 2 or 1 and
    the columns last: the state, of one column in `apply` and 2^n in
    `to_matrix`, and every build of an operator or block, a batch of
    identities of 2^|T| columns.  So a _Swaps step, whose permutation is made
    for the state, runs as it is in an operator's build, in `apply` too."""
    seen, run_steps = [], sim._run_steps
    monkeypatch.setattr(sim, "_run_steps", lambda psi, steps, axis:
                        seen.append((psi.shape, steps)) or run_steps(psi, steps, axis))
    swaps_built = 0  # operator builds in `apply` that run a _Swaps step
    for circuit, rng in [*map(random_swap_circuit, range(20)),
                         *map(random_segment_circuit, range(40))]:
        n, dim = circuit.num_qubits, 1 << circuit.num_qubits
        want = oracle_matrix(circuit)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for cols in (1, dim):
            seen.clear()
            got = sim.apply(circuit, state) if cols == 1 else sim.to_matrix(circuit)
            np.testing.assert_allclose(got, want @ state if cols == 1 else want,
                                       rtol=0, atol=1e-12)
            for shape, steps in seen:
                assert len(shape) == n + 1 and set(shape[:-1]) <= {1, 2}
                assert shape[-1] in {1 << k for k in range(shape[:-1].count(2) + 1)}
                swaps_built += cols == 1 and shape != (2,) * n + (1,) and any(
                    type(step) is sim._Swaps for step in steps)
    assert swaps_built > 0


def count_blocks(monkeypatch):
    """The (runs, masks) of every block that `_blocks` builds from now on
    (segment operators are built by `_block` too, before it)."""
    built, blocks, block = [], sim._blocks, sim._block

    def counted(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_block", lambda runs, psi, axis, masks:
                          built.append((runs, masks)) or block(runs, psi, axis, masks))
            return blocks(*args)

    monkeypatch.setattr(sim, "_blocks", counted)
    return built


def random_block_body(rng, n):
    """Consecutive ladders and multiplexors on 2 to 4 targets drawn at random
    from n bits, so that the bits they only read fall between them and the
    sets are not contiguous, often with a control that every gate shares."""
    bits = [int(b) for b in rng.permutation(n)]
    shared = [Control(bits.pop(), bool(rng.integers(2)))] if rng.random() < 0.7 else []
    targets = bits[:rng.integers(2, min(4, len(bits) - 1) + 1)]
    angle = lambda: float(rng.uniform(-180.0, 180.0))
    body = []
    for target in [*targets, *rng.permutation(targets)[:rng.integers(0, 3)]]:
        others = [b for b in bits if b != target]
        if rng.random() < 0.5:  # a multiplexor, at times under a control of its own
            k = int(rng.integers(1, min(3, len(others) - 1) + 1))
            read = [int(b) for b in rng.permutation(others)]
            mux = [MuxControl(b, name) for name, b in enumerate(read[:k])]
            plain = [Control(b, bool(rng.integers(2))) for b in read[k:k + rng.integers(2)]]
            body.append(mp_y(int(target), mux, [angle() for _ in range(1 << k)], shared + plain))
        else:
            for i in range(int(rng.integers(2, 7))):  # y-rotations between CNOTs
                plain = [Control(int(b), bool(rng.integers(2))) for b in
                         rng.choice(others, size=int(rng.integers(i % 2, 3)), replace=False)]
                body.append(sigx(int(target), shared + plain) if i % 2 else
                            roty(angle(), int(target), shared + plain))
    return body


def random_block_circuit(seed):
    """Two random block bodies on 4 to 6 qubits, each written in several
    segments that execute once, in a Loop and in a Loop nested in another:
    a stretch of runs executes as often as all its places together."""
    rng = np.random.default_rng(9700 + seed)
    n = int(rng.integers(4, 7))
    first, second = (random_block_body(rng, n) for _ in range(2))
    mark = Loop(1, (p1ph(30.0, 0),))
    return Circuit(n, (*[had2(b) for b in range(n)], *first, mark, *second, had2(0), *first,
                       swap(0, n - 1), *second, Loop(2, first),
                       Loop(1, (Loop(2, (*second, had2(0))),)), mark, *first)), rng


@pytest.mark.parametrize("seed", range(20))
def test_blocks_match_gate_by_gate_and_oracle(seed, monkeypatch):
    circuit, rng = random_block_circuit(seed)
    built = count_blocks(monkeypatch)
    dim = 1 << circuit.num_qubits
    want = oracle_matrix(circuit)
    got = sim.to_matrix(circuit)
    np.testing.assert_allclose(got, gate_by_gate(circuit, np.eye(dim)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for state in rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)):
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)
    # Each block writes its runs' targets, and pins or reads the rest of their bits.
    for runs, (pinned, on, reads, targets) in built:
        assert targets == sum({1 << run.gates[0].targets[0] for run in runs})
        assert pinned | reads | targets == functools.reduce(operator.or_, (r.bits for r in runs))
        assert not (pinned & reads) and not (pinned & targets) and on & ~pinned == 0


@pytest.mark.parametrize("run", [lambda c: sim.apply(c, sim.basis_state(c.num_qubits)),
                                 sim.to_matrix], ids=["apply", "to_matrix"])
def test_random_block_circuits_build_blocks(run, monkeypatch):
    built = count_blocks(monkeypatch)
    counts = []
    for seed in range(30):
        before = len(built)
        run(random_block_circuit(seed)[0])
        counts.append(len(built) - before)
    assert sum(count > 0 for count in counts) >= 24
    assert sum(masks[0] != 0 for _, masks in built) >= 20  # a shared control pinned
    assert {masks[3].bit_count() for _, masks in built} == {2, 3, 4}


def test_wide_flow_builds_a_block_per_embedding_cascade(monkeypatch):
    """The `wide` multiplexor-level file writes each embedding cascade of W
    as four lone multiplexors on bits 4 to 7 that read bits 0 to 3, all
    under one probe control: 18 distinct cascades, each one block on 3 or 4
    of its multiplexors, with the probe bit pinned."""
    circuit = parse_english(write_english(generated((4, 3, 1, 1))))
    built = count_blocks(monkeypatch)
    state = sim.basis_state(circuit.num_qubits)
    np.testing.assert_allclose(sim.apply(circuit, state), gate_by_gate(circuit, state)[:, 0],
                               rtol=0, atol=1e-12)
    assert len(built) == 18
    assert len({tuple(map(id, runs)) for runs, _ in built}) == 18
    for runs, (pinned, on, reads, targets) in built:
        assert all(len(run.gates) == 1 for run in runs) and len(runs) in (3, 4)
        assert pinned == on and pinned in (1 << 8, 1 << 9, 1 << 10)
        assert reads == 0b1111 and targets & ~0b11110000 == 0


# --- the first-gate memo ---------------------------------------------------------

def assert_same_steps(got, want, pairs):
    """`_steps` agrees with the scan: the same gate where the scan has a gate,
    and where it has a run, one of the same kind on the same gate objects,
    paired one to one with it over every call that shares `pairs`
    (id of a run -> (run, reference run))."""
    assert [type(step) for step in got] == [type(step) for step in want]
    for step, ref in zip(got, want):
        if type(ref) is Instruction:
            assert step is ref
        else:
            assert pairs.setdefault(id(step), (step, ref))[1] is ref
            assert len(step.gates) == len(ref.gates)
            assert all(map(operator.is_, step.gates, ref.gates))
    assert len({id(ref) for _, ref in pairs.values()}) == len(pairs)


def assert_same_plan(body):
    """`_plan` with the memo against `_plan` with every run scanned: the
    same segments and distinct runs, steps and executions."""
    _, runs, segments = sim._plan(body)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_steps", lambda gates, runs, firsts: scan_steps(gates, runs))
        _, want_runs, want_segments = sim._plan(body)
    assert list(runs) == list(want_runs) and list(segments) == list(want_segments)
    pairs = {}
    for segment, want in zip(segments.values(), want_segments.values()):
        assert segment.executions == want.executions
        assert_same_steps(segment.steps, want.steps, pairs)
    assert all(step.executions == ref.executions for step, ref in pairs.values())
    return runs, segments


def test_memo_takes_a_run_only_where_the_scan_would_find_it():
    c = Control(1)
    r1, x1, r2, h = roty(30.0, 0, (c,)), sigx(0, (c,)), roty(-75.0, 0), had2(0)
    m = mp_y(0, (MuxControl(1, 0),), (20.0, -40.0))
    s01, s12, s12_off = swap(0, 1, (Control(3),)), swap(1, 2, (Control(3),)), swap(1, 2)
    zero, negative_zero = roty(0.0, 0), roty(-0.0, 0)
    assert zero == negative_zero and zero is not negative_zero
    cases = [
        # a repeat cut off by the segment's end
        ([(r1, x1, r2, h), (h, r1, x1)], [[3, 1], [1, 2]]),
        # a repeat that the next gate extends; one first gate, runs of 2 and 3
        ([(r1, x1, h), (r1, x1, r2), (r1, x1, h), (r1, x1)], [[2, 1], [3], [2, 1], [2]]),
        # SWAP runs under equal controls (one of them a copy) and under others
        ([(s01, s12, h, s01, s12_off, s01, replace(s12))], [[2, 1, 1, 1, 2]]),
        # a lone MP_Y, then the same MP_Y followed by a rung on its target
        ([(m, h, m, r1, h, m)], [[1, 1, 2, 1, 1]]),
        # value-equal but distinct gates, as first gates and as rungs
        ([(zero, x1, h, negative_zero, x1, h, replace(zero), x1, h, zero, x1),
          (zero, replace(x1), h, zero, x1)], [[2, 1, 2, 1, 2, 1, 2], [2, 1, 2]]),
    ]
    for segments, lengths in cases:
        runs, firsts, want_runs, pairs = {}, {}, {}, {}
        for gates, expected in zip(segments, lengths):
            steps = sim._steps(gates, runs, firsts)
            assert_same_steps(steps, scan_steps(gates, want_runs), pairs)
            assert [1 if type(step) is Instruction else len(step.gates)
                    for step in steps] == expected
        assert list(runs) == list(want_runs)
    steps = sim._steps((zero, x1, h, negative_zero, x1, h, zero, x1, h, zero, replace(x1)), {})
    assert steps[0] is steps[4] and steps[0] is not steps[2] and steps[0] is not steps[6]


def memo_pool():
    """Shared gates on 4 qubits: starts and rungs of runs of either kind,
    copies and value-equal gates, and gates that end runs."""
    on1, off2 = Control(1), Control(2, False)
    first, rung = roty(30.0, 0, (on1,)), sigx(0, (on1,))
    return [first, replace(first), roty(0.0, 0), roty(-0.0, 0), rung, replace(rung),
            sigx(0, (off2,)), roty(-75.0, 0, (off2,)),
            mp_y(0, (MuxControl(1, 0),), (20.0, -40.0)),
            mp_y(0, (MuxControl(1, 0), MuxControl(2, 1)), (5.0, 7.5, -12.0, 90.0)),
            roty(45.0, 1, (Control(0),)), sigx(1, (Control(3),)),
            swap(0, 1), swap(2, 3), swap(1, 2, (Control(3),)), swap(0, 2, (Control(3),)),
            swap(0, 1, (Control(3, False),)), had2(0), p1ph(60.0, 0), rotx(15.0, 1)]


def random_memo_segments(rng):
    """Gate tuples drawn from one pool, each often reusing a stretch of an
    earlier one, so that runs recur with new neighbours."""
    pool, segments = memo_pool(), []
    for _ in range(int(rng.integers(3, 9))):
        gates: list = []
        size = int(rng.integers(1, 13))
        while len(gates) < size:
            if segments and rng.random() < 0.3:
                source = segments[int(rng.integers(len(segments)))]
                start = int(rng.integers(len(source)))
                gates.extend(source[start:int(rng.integers(start, len(source))) + 1])
            else:
                gates.append(pool[int(rng.integers(len(pool)))])
        segments.append(tuple(gates))
    return segments


@pytest.mark.parametrize("seed", range(40))
def test_memo_steps_match_the_scan(seed):
    segments = random_memo_segments(np.random.default_rng(9700 + seed))
    runs, firsts, want_runs, pairs = {}, {}, {}, {}
    for gates in segments:
        assert_same_steps(sim._steps(gates, runs, firsts), scan_steps(gates, want_runs), pairs)
    assert list(runs) == list(want_runs)


@pytest.mark.parametrize("seed", range(20))
def test_memo_plans_inside_loops_match_the_scan_gate_by_gate_and_oracle(seed):
    """The pool's gate tuples as Seqs, lone gates and Loops, nested: segments
    of one Seq, of several pieces, and repeated in the text and in loops."""
    rng = np.random.default_rng(9800 + seed)
    segments = random_memo_segments(rng)
    body: list = []
    for gates in segments:
        choice = rng.random()
        if choice < 0.3:
            body.append(Seq(gates))
        elif choice < 0.45:
            body.extend(gates)
        elif choice < 0.8:
            body.append(Loop(int(rng.integers(1, 4)), (Seq(gates),)))
        else:
            inner = Loop(int(rng.integers(1, 3)), (Seq(gates), segments[0][0]))
            body.append(Loop(int(rng.integers(1, 3)), (Seq(gates), inner, Seq(segments[0]))))
    circuit = Circuit(4, tuple(body))
    assert_same_plan(circuit.body)
    want = oracle_matrix(circuit)
    got = sim.to_matrix(circuit)
    np.testing.assert_allclose(got, gate_by_gate(circuit, np.eye(16)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for state in rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)):
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, want @ state, rtol=0, atol=1e-12)


def test_expanded_wide_flow_plans_as_the_scan():
    """The expanded file of the `wide` bench flow: its 18 distinct spans of
    gate lines hold 48 distinct runs, repeated ladders, in 481 steps."""
    circuit = generated((4, 3, 1, 1))
    _, english, _ = expand_file(write_english(circuit), write_picture(circuit))
    runs, segments = assert_same_plan(parse_english(english).body)
    assert len(segments) == 18 and len(runs) == 48
    assert sum(len(segment.steps) for segment in segments.values()) == 481
