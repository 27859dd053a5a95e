"""Shared test utilities: random circuit generation and independent oracles."""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from qsagen.ir import (Circuit, Control, Instruction, MuxControl, Opcode, end_loop,
                       had2, loop, mp_y, p0ph, p1ph, phas, rotn, rotx, roty, rotz,
                       sigx, sigy, sigz, swap)

GATE_MAKERS = "sig had rot rotn phas pph swap mpy".split()


def random_gate(rng: np.random.Generator, n: int) -> Instruction:
    kind = GATE_MAKERS[rng.integers(len(GATE_MAKERS))]
    bits = list(rng.permutation(n))

    def controls(avail, limit):
        count = int(rng.integers(0, min(limit, len(avail)) + 1))
        return [Control(int(b), bool(rng.integers(2))) for b in avail[:count]]

    angle = lambda: float(rng.uniform(-180.0, 180.0))
    if kind == "sig":
        ctor = [sigx, sigy, sigz][rng.integers(3)]
        return ctor(int(bits[0]), controls(bits[1:], 2))
    if kind == "had":
        return had2(int(bits[0]), controls(bits[1:], 2))
    if kind == "rot":
        ctor = [rotx, roty, rotz][rng.integers(3)]
        return ctor(angle(), int(bits[0]), controls(bits[1:], 2))
    if kind == "rotn":
        return rotn(angle(), angle(), angle(), int(bits[0]), controls(bits[1:], 2))
    if kind == "phas":
        return phas(angle(), controls(bits, n))
    if kind == "pph":
        ctor = [p0ph, p1ph][rng.integers(2)]
        return ctor(angle(), int(bits[0]), controls(bits[1:], 2))
    if kind == "swap" and n >= 2:
        return swap(int(bits[0]), int(bits[1]), controls(bits[2:], 2))
    if kind == "mpy" and n >= 2:
        k = int(rng.integers(1, min(3, n - 1) + 1))
        mux = [MuxControl(int(b), name) for name, b in enumerate(sorted(bits[1:1 + k]))]
        plain = controls(bits[1 + k:], 1)
        return mp_y(int(bits[0]), mux, [angle() for _ in range(1 << k)], plain)
    return had2(int(bits[0]))


def random_body(rng: np.random.Generator, n: int, max_items: int = 8,
                depth: int = 0, loops: bool = True) -> list[Instruction]:
    items: list[Instruction] = []
    for _ in range(int(rng.integers(0, max_items + 1))):
        if loops and depth < 2 and rng.random() < 0.25:
            inner = random_body(rng, n, max_items=4, depth=depth + 1, loops=loops)
            items.append(loop(int(rng.integers(1, 4))))
            items.extend(inner)
            items.append(end_loop())
        else:
            items.append(random_gate(rng, n))
    return items


def random_circuit(rng: np.random.Generator, num_qubits: int | None = None,
                   max_items: int = 8, loops: bool = True) -> Circuit:
    n = num_qubits if num_qubits is not None else int(rng.integers(1, 6))
    return Circuit(n, tuple(random_body(rng, n, max_items=max_items, loops=loops)))


def manual_unroll(body) -> list[Instruction]:
    """Independent loop expansion by literal block copying (counting oracle)."""
    out: list[Instruction] = []
    i = 0
    items = list(body)
    while i < len(items):
        ins = items[i]
        if ins.opcode is Opcode.LOOP:
            depth, j = 1, i + 1
            while depth:
                if items[j].opcode is Opcode.LOOP:
                    depth += 1
                elif items[j].opcode is Opcode.NEXT:
                    depth -= 1
                j += 1
            inner = manual_unroll(items[i + 1:j - 1])
            out.extend(inner * ins.loop_reps)
            i = j
        else:
            out.append(ins)
            i += 1
    return out


def random_stochastic(rng: np.random.Generator, ns: int) -> np.ndarray:
    """A random column-stochastic matrix (columns are Dirichlet samples)."""
    return rng.dirichlet(np.ones(ns), size=ns).T


# --- kron-built dense oracle (independent of qsagen.sim) -------------------------

_I2 = np.eye(2, dtype=complex)
_PROJ = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
_PAULI = {Opcode.SIGX: np.array([[0, 1], [1, 0]], dtype=complex),
          Opcode.SIGY: np.array([[0, -1j], [1j, 0]], dtype=complex),
          Opcode.SIGZ: np.array([[1, 0], [0, -1]], dtype=complex)}
_AXIS = {Opcode.ROTX: Opcode.SIGX, Opcode.ROTY: Opcode.SIGY, Opcode.ROTZ: Opcode.SIGZ}


def _kron_on_bits(n: int, factors: dict) -> np.ndarray:
    """kron of 2x2 factors keyed by bit, identity elsewhere; bit 0 least significant."""
    out = np.eye(1, dtype=complex)
    for bit in reversed(range(n)):
        out = np.kron(out, factors.get(bit, _I2))
    return out


def _target_block(ins: Instruction, angle_deg: float | None = None) -> np.ndarray:
    op = ins.opcode
    if op in _PAULI:
        return _PAULI[op]
    if op is Opcode.HAD2:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    r = math.radians(ins.angles_deg[0] if angle_deg is None else angle_deg)
    if op in _AXIS:
        return expm(0.5j * r * _PAULI[_AXIS[op]])
    if op is Opcode.ROTN:
        gen = sum(math.radians(a) * p for a, p in zip(ins.angles_deg, _PAULI.values()))
        return expm(0.5j * gen)
    if op is Opcode.P0PH:
        return np.diag([np.exp(1j * r), 1.0])
    if op is Opcode.P1PH:
        return np.diag([1.0, np.exp(1j * r)])
    if op is Opcode.MP_Y:
        return expm(1j * r * _PAULI[Opcode.SIGY])
    raise ValueError(f"no 2x2 block for {op}")


def oracle_gate(ins: Instruction, n: int) -> np.ndarray:
    """Dense unitary of one gate: control projectors (x) the gate, plus the
    identity on the complement of the controlled subspace."""
    ctrl = {c.bit: _PROJ[c.on] for c in ins.controls}
    active = _kron_on_bits(n, ctrl)
    rest = np.eye(1 << n) - active
    op = ins.opcode
    if op is Opcode.PHAS:
        return np.exp(1j * math.radians(ins.angles_deg[0])) * active + rest
    if op is Opcode.SWAP:
        hi, lo = ins.targets
        units = [np.outer(_I2[i], _I2[j]) for i in range(2) for j in range(2)]
        return sum(_kron_on_bits(n, {**ctrl, hi: e, lo: e.T}) for e in units) + rest
    target = ins.targets[0]
    if op is Opcode.MP_Y:
        return sum(
            _kron_on_bits(n, {**ctrl, target: _target_block(ins, angle),
                             **{m.bit: _PROJ[(word >> m.name) & 1] for m in ins.mux_controls}})
            for word, angle in enumerate(ins.angles_deg)) + rest
    return _kron_on_bits(n, {**ctrl, target: _target_block(ins)}) + rest


def oracle_matrix(circuit: Circuit) -> np.ndarray:
    """Product of the oracle gate unitaries over the literally unrolled body."""
    out = np.eye(1 << circuit.num_qubits, dtype=complex)
    for ins in manual_unroll(circuit.body):
        out = oracle_gate(ins, circuit.num_qubits) @ out
    return out
