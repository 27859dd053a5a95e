"""Dense state-vector/matrix simulator for the gate IR.

This is the numerical oracle the rest of the package is tested against.
Basis index bit b is qubit b (bit 0 least significant).  With r denoting an
angle converted from degrees to radians, the gate unitaries are:

    SIGX SIGY SIGZ   Pauli matrices            HAD2   Hadamard
    ROTX/ROTY/ROTZ   exp(+i*(r/2)*sigma_axis)
    ROTN a b c       exp(+i/2 * (ra*sx + rb*sy + rc*sz))
    PHAS             scalar exp(i*r) on the control-selected subspace
    P0PH / P1PH      diag(exp(i*r), 1) / diag(1, exp(i*r)) on the target
    MP_Y             exp(+i*r_w*sigma_y) on the target, where the word w is
                     read off the mux control bits (control named j gives
                     bit j of w)
    SWAP             exchange of the two target qubit lines

Plain controls restrict any gate to the matching computational subspace.
Loops are unrolled.  All operations are pure; inputs are never mutated.
`apply` takes up to MAX_STATE_QUBITS qubits (2^n amplitudes), `to_matrix`
up to MAX_MATRIX_QUBITS (4^n).

The kernel views the 2^n amplitudes, without copying, as a tensor of shape
(2,)*n with bit b on axis n-1-b; `to_matrix` runs the same loop on the
identity, with one trailing column axis.  A plain control pins its axis to 0
or 1 and the target axis splits into a 0-half and a 1-half, all by basic
slicing, so every gate reads and writes views.  The 2x2 unitary mixes the two
halves; SWAP exchanges the 10- and 01-views; PHAS scales the control view.
MP_Y is a single pass: the mux word of every amplitude pair is broadcast from
one arange(2) << name term per mux axis and gathers that pair's cos/sin.

Runs and tables.  Every gate but PHAS and SWAP is a 2x2 on one target.  Each
loop body (a node of `Circuit.tree`) is cut into maximal runs of
consecutive 2x2 gates on one target; a run never crosses a LOOP or NEXT.  A
run leaves its other operand bits, its k controls, unchanged, so it is one
uniformly controlled 2x2: a unitary U_w for each word w of the controls.
Its table, U_w[i, j] in a tensor of shape (2,)*k + (2, 2), is built by the
same kernel on the identity, with each bit mapped to its table axis, and is
applied like MP_Y, in one pass: its four entries, broadcast over the
controls' axes of the state, mix the two target halves.  Runs are told
apart by the identities of their instructions (the parser shares one object
per distinct line), so every repetition of a loop body and every repeat of
a multiplexor's ladder is one run, and its table is built once per call.
A run that executes once goes to the kernel gate by gate, as does a run of
one gate other than an MP_Y that executes three times or more (the kernel
rebuilds a multiplexor's word tensor and cos/sin gather every time).  Tables
change the order of the floating-point operations: results agree with
gate-by-gate evaluation within 1e-12, not bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from .ir import Circuit, Instruction, Opcode, _Block

MAX_STATE_QUBITS = 16   # apply: 2^n amplitudes
MAX_MATRIX_QUBITS = 12  # to_matrix: 4^n amplitudes
_PIN = (slice(0, 1), slice(1, 2))  # size-1 slices keep every axis for broadcasting

_SIGX = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGZ = np.array([[1, 0], [0, -1]], dtype=complex)
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_FIXED = {op: tuple(u.flat) for op, u in (
    (Opcode.SIGX, _SIGX), (Opcode.SIGY, _SIGY), (Opcode.SIGZ, _SIGZ), (Opcode.HAD2, _HAD))}


def _single_qubit_unitary(op: Opcode, angles_deg: tuple[float, ...]) -> tuple:
    """Entries (u00, u01, u10, u11) of the 2x2 unitary a gate applies to its target."""
    if op in _FIXED:
        return _FIXED[op]
    if op is Opcode.P0PH:
        return np.exp(1j * math.radians(angles_deg[0])), 0j, 0j, 1 + 0j
    if op is Opcode.P1PH:
        return 1 + 0j, 0j, 0j, np.exp(1j * math.radians(angles_deg[0]))
    if op in (Opcode.ROTX, Opcode.ROTY, Opcode.ROTZ):
        half = math.radians(angles_deg[0]) / 2
        c, s = math.cos(half), math.sin(half)
        if op is Opcode.ROTX:
            return complex(c), 1j * s, 1j * s, complex(c)
        if op is Opcode.ROTY:
            return complex(c), complex(s), complex(-s), complex(c)
        return np.exp(1j * half), 0j, 0j, np.exp(-1j * half)
    # ROTN: exp(i/2 * v . sigma) with v the angle vector in radians
    v = np.radians(np.asarray(angles_deg, dtype=float))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return 1 + 0j, 0j, 0j, 1 + 0j
    axis = v / norm
    n_sigma = axis[0] * _SIGX + axis[1] * _SIGY + axis[2] * _SIGZ
    half = norm / 2
    return tuple((math.cos(half) * np.eye(2) + 1j * math.sin(half) * n_sigma).flat)


def _apply_gate(psi: np.ndarray, ins: Instruction, axis) -> None:
    """Apply one gate in place; `axis[b]` is the tensor axis of bit b."""
    index = [slice(None)] * psi.ndim
    for c in ins.controls:
        index[axis[c.bit]] = _PIN[c.on]
    op = ins.opcode
    if op is Opcode.PHAS:
        psi[tuple(index)] *= np.exp(1j * math.radians(ins.angles_deg[0]))
        return
    if op is Opcode.SWAP:
        hi, lo = (axis[t] for t in ins.targets)
        index[hi], index[lo] = _PIN[1], _PIN[0]
        v10 = psi[tuple(index)]
        index[hi], index[lo] = _PIN[0], _PIN[1]
        v01 = psi[tuple(index)]
        v10[...], v01[...] = v01.copy(), v10.copy()
        return
    target = axis[ins.targets[0]]
    index[target] = _PIN[0]
    a0 = psi[tuple(index)]
    index[target] = _PIN[1]
    a1 = psi[tuple(index)]
    if op is Opcode.MP_Y:
        # A (2, 1, ..., 1) term broadcasts from the right onto the bit's axis.
        word = sum((np.arange(2) << m.name).reshape((2,) + (1,) * (psi.ndim - 1 - axis[m.bit]))
                   for m in ins.mux_controls)
        cos_sin = np.array([(math.cos(r), math.sin(r))
                            for r in map(math.radians, ins.angles_deg)])[word]
        c, s = cos_sin[..., 0], cos_sin[..., 1]
        u00, u01, u10, u11 = c, s, -s, c
    else:
        u00, u01, u10, u11 = _single_qubit_unitary(op, ins.angles_deg)
    _mix(a0, a1, u00, u01, u10, u11)


def _mix(a0: np.ndarray, a1: np.ndarray, u00, u01, u10, u11) -> None:
    """(a0, a1) <- U (a0, a1) in place, U = [[u00, u01], [u10, u11]]."""
    new0 = u00 * a0 + u01 * a1
    a1[...] = u10 * a0 + u11 * a1
    a0[...] = new0


def _table(run: list[Instruction], axis, ndim: int) -> tuple:
    """A run of 2x2 gates on one target as one uniformly controlled 2x2: the
    two target-half indices of the state tensor (`ndim` axes, bit b on
    `axis[b]`) and the four entries U_w[i, j], each shaped to broadcast over
    the state's control axes."""
    target = run[0].targets[0]
    bits = sorted({b for ins in run for b in ins.operand_bits[1:]}, reverse=True)
    k = len(bits)
    u = np.zeros((2,) * k + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = 1
    table_axis = {b: i for i, b in enumerate(bits)}
    table_axis[target] = k
    for ins in run:
        _apply_gate(u, ins, table_axis)
    shape = [1] * ndim
    index = [slice(None)] * ndim
    for b in bits:
        shape[axis[b]] = 2
    index[axis[target]] = _PIN[0]
    index0 = tuple(index)
    index[axis[target]] = _PIN[1]
    return (index0, tuple(index),
            *(u[..., i, j].reshape(shape) for i in range(2) for j in range(2)))


class _Run:
    """A maximal run of 2x2 gates on one target, one object per distinct run;
    `executions` counts its occurrences, each weighted by its loops' reps."""

    __slots__ = ("gates", "executions", "table")

    def __init__(self, gates: list[Instruction]):
        self.gates, self.executions, self.table = gates, 0, None


def _plan(nodes: list, runs: dict, weight: int) -> list:
    """The loop tree with each run of two or more gates or one MP_Y replaced
    by its _Run, shared through `runs`, keyed on its gates' identities."""
    steps: list = []
    i, count = 0, len(nodes)
    while i < count:
        node = nodes[i]
        i += 1
        if isinstance(node, _Block):
            steps.append(_Block(node.reps, _plan(node.body, runs, weight * node.reps)))
            continue
        start, targets = i - 1, node.targets
        if len(targets) == 1:
            while i < count and not isinstance(nodes[i], _Block) and nodes[i].targets == targets:
                i += 1
        if i - start == 1 and node.opcode is not Opcode.MP_Y:
            steps.append(node)
            continue
        gates = nodes[start:i]
        key = tuple(map(id, gates))
        run = runs.get(key)
        if run is None:
            run = runs[key] = _Run(gates)
        run.executions += weight
        steps.append(run)
    return steps


def _execute(psi: np.ndarray, steps: list, axis) -> None:
    for step in steps:
        if type(step) is Instruction:
            _apply_gate(psi, step, axis)
        elif type(step) is _Block:
            for _ in range(step.reps):
                _execute(psi, step.body, axis)
        elif step.table is None:
            for ins in step.gates:
                _apply_gate(psi, ins, axis)
        else:
            index0, index1, *entries = step.table
            _mix(psi[index0], psi[index1], *entries)


def _evolve(circuit: Circuit, amp: np.ndarray) -> np.ndarray:
    """Apply every gate in place to `amp`, whose first axis is the basis index.

    A run that executes once stays gate by gate, and so does a lone MP_Y
    that executes twice: its table would cost as much to build as the gates
    cost to apply."""
    n = circuit.num_qubits
    psi = amp.reshape((2,) * n + amp.shape[1:])
    axis = tuple(range(n - 1, -1, -1))
    runs: dict = {}
    steps = _plan(circuit.tree, runs, 1)
    for run in runs.values():
        if run.executions > (2 if len(run.gates) == 1 else 1):
            run.table = _table(run.gates, axis, psi.ndim)
    _execute(psi, steps, axis)
    return psi.reshape(amp.shape)


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a state vector of matching dimension."""
    if circuit.num_qubits > MAX_STATE_QUBITS:
        raise ValueError(
            f"apply supports at most {MAX_STATE_QUBITS} qubits, got {circuit.num_qubits}")
    dim = 1 << circuit.num_qubits
    amp = np.array(state, dtype=complex)
    if amp.shape[0] != dim:
        raise ValueError(f"state has dimension {amp.shape[0]}, circuit needs {dim}")
    return _evolve(circuit, amp)


def to_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of a circuit; column k is the image of basis state k."""
    if circuit.num_qubits > MAX_MATRIX_QUBITS:
        raise ValueError(
            f"to_matrix supports at most {MAX_MATRIX_QUBITS} qubits, "
            f"got {circuit.num_qubits}")
    return _evolve(circuit, np.eye(1 << circuit.num_qubits, dtype=complex))


def basis_state(num_qubits: int, index: int = 0) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def unitarity_defect(op: np.ndarray) -> float:
    op = np.asarray(op)
    return float(np.abs(op @ op.conj().T - np.eye(op.shape[0])).max())


def eig_unitary(op: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Eigenphases of a unitary matrix, sorted ascending in (-pi, pi]."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    defect = unitarity_defect(op)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.1e})")
    return np.sort(np.angle(np.linalg.eigvals(op)))


def phases_match(actual, expected, tol: float = 1e-8) -> bool:
    """Multiset equality of two eigenphase lists, compared on the unit circle."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape[0] != expected.shape[0]:
        return False
    remaining = list(np.exp(1j * actual))
    for z in np.exp(1j * expected):
        dists = [abs(z - w) for w in remaining]
        best = int(np.argmin(dists))
        if dists[best] > tol:
            return False
        remaining.pop(best)
    return True
