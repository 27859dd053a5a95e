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
A Loop runs its body `reps` times.  All operations are pure; inputs are never
mutated.  `apply` takes up to MAX_STATE_QUBITS qubits (2^n amplitudes),
`to_matrix` up to MAX_MATRIX_QUBITS (4^n).

The kernel views the amplitudes, a (2^n, columns) array (one column for
`apply`, the 2^n of the identity for `to_matrix`), without copying, as a
tensor of shape (2,)*n + (columns,): bit b on axis n-1-b and the columns
last, where numpy runs fastest.  Every dense build below has the same
layout.  A plain control pins its axis to 0 or 1 and the target axis splits
into a 0-half and a 1-half, all by basic slicing, so every gate reads and
writes views.  The 2x2 unitary mixes the two halves; PHAS scales the
control view; SWAP permutes its axes (below).  MP_Y is a single pass: the
mux word of every amplitude pair is broadcast from one arange(2) << name
term per mux axis and gathers that pair's cos/sin.
Axes are addressed from the right, so the same code runs on any number of
leading axes.

Segments.  The plan takes each distinct node once.  In a body (the circuit's, a
Seq's or a Loop's) each maximal run of gates between nodes is a segment, as is
a Seq of gates only (the parser's, one per span between LOOP/NEXT lines); a Seq
that nests (the emitters' shared V, R and G) is a shared sub-plan, and a Loop
repeats its body's plan.  Segments are told apart by the identity of their Seq
or gates and cut into steps once; runs (below) by the identities of their
instructions.  A run is also found by its first gate: where the gates of the
last run that began with that object recur (one C-level identity comparison),
they are not scanned again, and the run is taken unless the next gate extends
it.  The parser gives every distinct span of gate lines one Seq and every
distinct line one Instruction, and the emitters share one object per distinct
gate, so every repetition of a loop body, every repeat of a block in the text
and every repeat of a multiplexor's ladder is one segment or one run, prepared
once per call.  Each counts its executions, weighted by its loops' reps and
passed over the distinct nodes parents first: planning is O(distinct nodes and
their gates), and only execution visits every placement.

Runs and tables.  A segment is cut into maximal runs of consecutive ROTY,
SIGX and MP_Y gates on one target: every expanded ladder, the uniformly
controlled rotation of Mottonen et al., quant-ph/0404089, and every lone
multiplexor.  A run leaves its other operand bits, its controls, unchanged,
so it is one uniformly controlled 2x2: a unitary U_w for each word w of the
controls.  A control that every gate of the run shares (same bit, same
value) is pinned in the two target-half indices, as the kernel pins a
gate's controls, and gets no table axis; each other control bit gets one.
The table's four entries U_w[i, j], broadcast over those axes of the state,
mix the two target halves in one pass, like MP_Y.  They have a closed form:
U_w = X^p(w) R(A(w)), R(a) = [[cos a, sin a], [-sin a, cos a]], because
X R(a) X = R(-a).  p(w) is the parity of the SIGX gates active at w; A(w)
sums the angles of the active rotations (r/2 for ROTY, r_w for MP_Y), each
negated after an odd number of active SIGX.  It takes a few numpy calls per
run: a (gates x words) bool activity mask, its running XOR along the gates,
one signed sum and one cos/sin per word.  Each angle is reduced before its
conversion to radians, by its period, 720 degrees for ROTY and 360 for MP_Y,
so whole turns drop out exactly and the sum stays within gates * 2pi.  A
run of two or more gates gets a table when it executes more than once, a
lone MP_Y from its third execution, a segment operator's build counting
once (the kernel rebuilds a multiplexor's word tensor and cos/sin gather
every time); any other gate, HAD2 and P1PH included, goes to the kernel.

A maximal run of SWAPs with identical controls, a lone SWAP included, is
one step, shared and counted like a run: its exchanges compose to one
permutation of the axes of the control view, written back in one
assignment, `view[...] = view.transpose(order)`, which numpy buffers as
source and destination overlap; it only moves amplitudes, so it is exact.
In a segment that gets no operator (below), consecutive tabled runs may
form a block.  Its runs write T, the set of their targets, pin the
controls that all their gates share and only read C, the rest of their
operand bits.  It is built once, by `_block`, the one builder of dense
products: the runs run on a batch of 2^|T| identities, one on T for each
value of the pinned and read bits, in the state's layout, and it is kept
at the pinned values as a (2^|C|, 2^|T|, 2^|T|) array; it executes as one
batched matmul with the pinned view of the state transposed to (C, T,
rest).  Each distinct stretch of consecutive tabled runs is cut into
blocks once, by the cost rule below, with its executions summed over its
places.

Segment operators.  A segment may run as a dense 2^k x 2^k matrix on k qubits,
built once by `_block` as a block that reads
nothing: its steps run on a batch of identities in the state's layout, taken
at the values of the bits it pins.  Its support is the qubits its steps act
on, its pins the plain controls that all its gates share, a run's read once
per distinct run.  Segments with pins are grouped by their steps, support less
pins, pin count and end gates; those equal gate for gate once their pins are
removed may share one operator on that support, each with its own view of the
state, its pins fixed.  A segment that runs once gets no operator of its own,
but if pinned may join a group: at (nb, a, c) = (2, 3, 2) the six controlled
powers W^(2^j) of phase estimation in V(beta), j = 0 included, share one 16x16
operator on the walk qubits, pinned at their probe bits, and the six in
V(beta)^dagger another.
A whole-register operator multiplies the state as a (2^n, columns) matrix, any
other a view of it, pinned and transposed so that its qubits lead, reshaped to
2^k rows.  One fixed cost rule decides, with constants measured by timeit
(numpy 2.4.6, Python 3.11, 2 vCPUs, one BLAS thread): a step costs 10 us + 5
ns per amplitude it runs on; a product 2 us + 0.5 ns per operator row, state
amplitude and column, or 0.2 ns over the 2^n columns of `to_matrix` (measured:
0.13 ns on 10 qubits, 0.14-0.20 ns on all or all but one of 6 to 9, more on
fewer), and 0.4 us per further matrix of a stack (measured: 0.4-0.5 us beyond
its entries, stacks of 16 to 256 matrices of 4 or 16 rows against 4 columns);
a transpose one step.  A segment of s steps with p pins that executes e times
saves e * s * (step on the state), less a build of s steps on 2^(p + 2k)
amplitudes, and e products and transposes.  A segment's own operator pins
nothing and takes the k, support or n, that saves more; a shared one sums e
over its segments and is taken where it saves more than their own would
together; a group that would not pay even if all its members were equal has no
gate compared.  At 6 qubits a segment of 26 steps on all of them pays from its
third execution and one of 2 steps from its fourth; one of 26 steps on 5 of
them pays from its second, on the whole register from its 43rd.  At 10 qubits
a controlled power of W at nb 2, 14 steps, pays from its first execution on
the 4 walk qubits pinned at its probe and from its second on all 5; a build on
the whole register costs as much as 347 executions step by step.  The
operators of one call hold at most 16 MiB (16 * 4^k bytes each), the most
saving first: 256 on 6 qubits, one on 10, none on 11.  A Loop of one segment
with an operator applies the operator's reps-th power, built by repeated
squaring once per operator and reps, in the budget, where the e * (reps - 1)
products saved, e summed over the Loops that share it, cost more than
2 log2(reps) squarings, rows^3 entries each at the rate of `to_matrix`.  A
block of s runs with p pinned bits saves e * s steps on the state, less e products of 2^|C|
matrices of 2^|T| rows over the 2^(n-p) amplitudes of its view, e transposes,
and a build of s steps on 2^(p + |C| + 2|T|) amplitudes.  From each run of a
stretch on, the block of two or more runs that saves most is taken when that
is positive and its 16 * 2^|C| * 4^|T| bytes fit what the operators left of
the budget; it grows no further than where one more step at its present widths
would save nothing.  An embedding cascade of W at 11 qubits, 4 lone
multiplexors with |T| = |C| = 4 and one pinned probe bit, saves 44 us per
execution against a build of 0.2 ms (about 0.25 ms measured), and forms one
block of all 4 from its ninth execution; below that a block of its first 3,
which pays from its third, saves more.

Tables and operators change the order of the floating-point operations,
so results differ from gate-by-gate evaluation by rounding that grows with
the executed ops: about 2e-18 per op on 4 to 6 qubits (numpy 2.4.6), so
2.9e-12 after the 1,561,282 ops of the mux-level file of nb 2, 2 probe
bits, 1 PE step, depth 8, with state preparation.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .ir import Circuit, Instruction, Loop, Opcode, Seq

MAX_STATE_QUBITS = 16   # apply: 2^n amplitudes
MAX_MATRIX_QUBITS = 12  # to_matrix: 4^n amplitudes
_PIN = (slice(0, 1), slice(1, 2))  # size-1 slices keep every axis for broadcasting
# The cost rule of segment operators and blocks (see the module docstring):
# seconds per step and per amplitude, per product, per operator entry and
# column, for one column (a matvec) and for the 2^n of `to_matrix` (a matrix
# product), and per further matrix of a stack; and the bytes that the
# operators and blocks of one call may hold.
_STEP_S, _AMPLITUDE_S = 10e-6, 5e-9
_PRODUCT_S, _MATVEC_ENTRY_S, _GEMM_ENTRY_S, _BATCH_S = 2e-6, 0.5e-9, 0.2e-9, 0.4e-6
_OPERATOR_BYTES = 16 << 20

_SIGX = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGZ = np.array([[1, 0], [0, -1]], dtype=complex)
_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_FIXED = {op: tuple(u.flat) for op, u in (
    (Opcode.SIGX, _SIGX), (Opcode.SIGY, _SIGY), (Opcode.SIGZ, _SIGZ), (Opcode.HAD2, _HAD))}
_REAL = frozenset((Opcode.ROTY, Opcode.SIGX, Opcode.MP_Y))  # the gates that form runs


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
    """Apply one gate in place; `axis[b]` is the tensor axis of bit b, counted
    from the right."""
    op = ins.opcode
    if op is Opcode.SWAP:
        _permute(psi, _exchange((ins,), axis, psi.ndim))
        return
    index = [slice(None)] * psi.ndim
    for c in ins.controls:
        index[axis[c.bit]] = _PIN[c.on]
    if op is Opcode.PHAS:
        psi[tuple(index)] *= np.exp(1j * math.radians(ins.angles_deg[0]))
        return
    target = axis[ins.targets[0]]
    index[target] = _PIN[0]
    a0 = psi[tuple(index)]
    index[target] = _PIN[1]
    a1 = psi[tuple(index)]
    if op is Opcode.MP_Y:
        # A (2, 1, ..., 1) term broadcasts from the right onto the bit's axis.
        word = sum((np.arange(2) << m.name).reshape((2,) + (1,) * (-1 - axis[m.bit]))
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


def _exchange(swaps, axis, ndim: int) -> tuple[tuple, tuple]:
    """SWAPs with identical controls as one axis permutation: the index of
    the view of a tensor of `ndim` axes that their controls select, and the
    order of that view's axes after each pair of target lines is exchanged
    in turn."""
    index = [slice(None)] * ndim
    for c in swaps[0].controls:
        index[axis[c.bit]] = _PIN[c.on]
    order = list(range(ndim))
    for ins in swaps:
        hi, lo = (axis[t] for t in ins.targets)
        order[hi], order[lo] = order[lo], order[hi]
    return (Ellipsis, *index), tuple(order)


def _permute(psi: np.ndarray, exchange: tuple) -> None:
    """Apply `_exchange`'s permutation, to the state or a build of its layout,
    in one assignment, which numpy buffers as source and destination overlap."""
    index, order = exchange
    view = psi[index]
    view[...] = view.transpose(order)


def _table(run: list[Instruction], axis, ndim: int) -> tuple[int, tuple, tuple]:
    """A run of ROTY, SIGX and MP_Y gates on one target as one uniformly
    controlled 2x2: the masks of its operand bits and of the controls every
    gate shares, (on, off), and its table: the two target-half indices of a
    state tensor (bit b on `axis[b]` of its last `ndim` axes), which pin those
    controls, and the four entries U_w[i, j], each shaped to broadcast over
    the state's axes of the other control bits.  U_w = X^p(w) R(A(w)), with R(a) = [[cos a, sin a],
    [-sin a, cos a]], as X R(a) X = R(-a): p(w) is the parity of the SIGX
    gates active at w, and A(w) sums the angles of the active rotations, each
    negated after an odd number of active SIGX."""
    target = run[0].targets[0]
    masks, values, used = [], [], 0  # per gate: its plain control bits, those that are on
    for ins in run:
        mask = value = 0
        for c in ins.controls:
            mask |= 1 << c.bit
            value |= c.on << c.bit
        masks.append(mask)
        values.append(value)
        used |= mask
        for m in ins.mux_controls:
            used |= 1 << m.bit
    on = functools.reduce(operator.and_, values)
    pinned = on | functools.reduce(operator.and_, map(operator.xor, masks, values))
    # the table's bits, descending: the first is the most significant bit of w
    bits = [b for b in reversed(range(len(axis))) if (used & ~pinned) >> b & 1]
    digits = np.arange(1 << len(bits)) >> np.arange(len(bits) - 1, -1, -1)[:, None] & 1
    word = on + np.array([1 << b for b in bits], dtype=np.int64) @ digits  # w on the qubits
    # (gates, words) bool: gate i is active at w when its controls match w
    active = np.logical_not((word ^ np.array(values)[:, None]) & np.array(masks)[:, None])
    sigx, roty, mp_y = Opcode.SIGX, Opcode.ROTY, Opcode.MP_Y
    flips = active & np.array([ins.opcode is sigx for ins in run])[:, None]
    np.logical_xor.accumulate(flips, axis=0, out=flips)  # at a rotation: the parity before it
    parity = flips[-1].copy()
    flips &= active
    active ^= flips  # now disjoint: the rotations that add their angle, those that subtract
    sign = np.subtract(active, flips, dtype=float)  # +1, -1 or 0
    total = [math.radians(math.fmod(ins.angles_deg[0], 720.0)) / 2
             if ins.opcode is roty else 0.0 for ins in run] @ sign
    for i, ins in enumerate(run):
        if ins.opcode is mp_y:
            names = {m.bit: 1 << m.name for m in ins.mux_controls}
            mux = np.array([names.get(b, 0) for b in bits], dtype=np.int64) @ digits
            total += np.radians(np.fmod(ins.angles_deg, 360.0))[mux] * sign[i]
    c, s = np.cos(total), np.sin(total)
    entries = (np.where(parity, -s, c), np.where(parity, c, s),
               np.where(parity, c, -s), np.where(parity, s, c))
    shape = [1] * ndim
    index = [slice(None)] * ndim
    for b in bits:
        shape[axis[b]] = 2
    for b in range(len(axis)):
        if pinned >> b & 1:
            index[axis[b]] = _PIN[on >> b & 1]
    index[axis[target]] = _PIN[0]
    index0 = (Ellipsis, *index)
    index[axis[target]] = _PIN[1]
    table = (index0, (Ellipsis, *index), *(entry.reshape(shape) for entry in entries))
    return used | 1 << target, (on, pinned & ~on), table


class _Run:
    """A maximal run of ROTY, SIGX and MP_Y gates on one target (two or
    more, or a lone MP_Y), one object per distinct run; `executions` counts its
    occurrences, each weighted by its loops' reps.  Once `_masks` or `_table`
    has read its gates it knows its operand bits and its (on, off) pins."""

    __slots__ = ("gates", "executions", "table", "bits", "pins")

    def __init__(self, gates: list[Instruction]):
        self.gates, self.executions, self.table, self.bits, self.pins = gates, 0, None, 0, None


class _Swaps:
    """A maximal run of SWAPs with identical controls, one object per distinct
    run, counted like a _Run, with masks like it; once prepared, its `_exchange`."""

    __slots__ = ("gates", "executions", "exchange", "bits", "pins")

    def __init__(self, gates: list[Instruction]):
        self.gates, self.executions, self.exchange, self.bits, self.pins = gates, 0, None, 0, None


class _Block:
    """Consecutive tabled runs as one batched product: a matrix on their
    targets T for each word of the bits C that they only read, shaped
    (2^|C|, 2^|T|, 2^|T|), and the view of the state it multiplies: the
    controls that all their gates share pinned, its axes transposed to
    (C, T, the rest)."""

    __slots__ = ("matrices", "view")

    def __init__(self, matrices: np.ndarray, view: np.ndarray):
        self.matrices, self.view = matrices, view


class _Segment:
    """A maximal run of gates between nodes, or a Seq of gates only, one object
    per distinct segment: its steps (gates, _Runs, _Swaps and, once cut,
    _Blocks), its executions counted like a _Run's, and its dense operator once
    built, maybe shared, with its own view of the state unless that spans all."""

    __slots__ = ("steps", "executions", "operator", "view")

    def __init__(self, steps: list):
        self.steps, self.executions, self.operator, self.view = steps, 0, None, None


def _steps(gates: tuple, runs: dict, firsts: dict | None = None) -> list:
    """A run of gates cut into steps: each maximal run of two or more ROTY,
    SIGX and MP_Y gates on one target, and each lone MP_Y, is its _Run, each
    maximal run of SWAPs with identical controls its _Swaps, both shared
    through `runs` and keyed on their gates' identities; any other gate is
    a step by itself.  `firsts` maps the id of a run's first gate to the
    last run that started with it: where that run's gates recur, by
    identity, the scan resumes after them (module docstring, Segments)."""
    firsts = {} if firsts is None else firsts
    steps: list = []
    i, count = 0, len(gates)
    while i < count:
        gate = gates[i]
        start, op, kind = i, gate.opcode, None
        run, end = firsts.get(id(gate)), start + 1
        if run is not None:
            end = start + len(run.gates)
            if end > count or not all(map(operator.is_, gates[start:end], run.gates)):
                run, end = None, start + 1
        i = end
        if op is Opcode.SWAP:
            kind = _Swaps
            while i < count and gates[i].opcode is op and gates[i].controls == gate.controls:
                i += 1
        elif op in _REAL:
            while i < count and gates[i].opcode in _REAL and gates[i].targets == gate.targets:
                i += 1
            if i - start > 1 or gate.mux_controls:
                kind = _Run
        if kind is None:
            steps.append(gate)
            continue
        if run is None or i > end:  # not found again, or the next gate extends it
            run_gates = gates[start:i]
            key = tuple(map(id, run_gates))
            run = runs.get(key)
            if run is None:
                run = runs[key] = kind(run_gates)
            firsts[id(gate)] = run
        steps.append(run)
    return steps


class _Nest:
    """A distinct Seq that nests, a distinct Loop or the circuit's body: the
    plan of its body, its reps (1 but for a Loop), its executions counted like
    a segment's, and, once built, the reps-th power of its one segment's
    operator, with that segment's view of the state."""

    __slots__ = ("plan", "reps", "executions", "operator", "view")

    def __init__(self, plan: list, reps: int):
        self.plan, self.reps, self.executions, self.operator, self.view = plan, reps, 0, None, None


def _plan(body: tuple) -> tuple[list, dict, dict]:
    """The distinct _Nests, the circuit's body first and each before those it
    holds, with the distinct runs and the distinct segments, each knowing how
    often it executes, as does each _Swaps."""
    runs, firsts = {}, {}  # as `_steps` reads them
    segments: dict = {}  # id(gate-only Seq), or the ids of loose gates -> _Segment
    nests: dict = {}  # id(Seq or Loop) -> _Nest, each after those it holds

    def segment(key, gates) -> _Segment:
        found = segments.get(key)
        if found is None:
            found = segments[key] = _Segment(_steps(gates, runs, firsts))
        return found

    def plan(body: tuple) -> list:
        items, gates = [], []
        for node in body:
            if type(node) is Instruction:
                gates.append(node)
                continue
            if gates:
                items.append(segment(tuple(map(id, gates)), gates))
                gates = []
            if type(node) is Seq and not node.nests:
                if node.body:
                    items.append(segment(id(node), node.body))
                continue
            nest = nests.get(id(node))
            if nest is None:
                nest = nests[id(node)] = _Nest(plan(node.body),
                                               node.reps if type(node) is Loop else 1)
            items.append(nest)
        if gates:
            items.append(segment(tuple(map(id, gates)), gates))
        return items

    order = [_Nest(plan(body), 1), *reversed(nests.values())]
    order[0].executions = 1
    for nest in order:  # parents first: each is complete before it counts its body
        for item in nest.plan:
            item.executions += nest.executions * nest.reps
    for found in segments.values():
        for step in found.steps:
            if type(step) is not Instruction:
                step.executions += found.executions
    return order, {key: run for key, run in runs.items() if type(run) is _Run}, segments


def _controls(ins: Instruction, keep: int = -1) -> tuple[int, int]:
    """The masks of a gate's plain controls in `keep` and of those that are on."""
    mask = value = 0
    for c in ins.controls:
        mask |= 1 << c.bit
        value |= c.on << c.bit
    return mask & keep, value & keep


def _masks(steps) -> tuple[int, int, int]:
    """The masks of the bits that steps act on and of the plain controls all
    their gates share, on and off; a run's are kept on it, read once."""
    support, on, off = 0, -1, -1
    for step in steps:
        if type(step) is not Instruction:
            if step.pins is None:
                step.bits, *step.pins = _masks(step.gates)
            support, on, off = support | step.bits, on & step.pins[0], off & step.pins[1]
            continue
        mask, value = _controls(step)
        on, off = on & value, off & (mask ^ value)
        for b in step.operand_bits:
            support |= 1 << b
    return support, on, off


def _same(steps: list, pins: int, other: list, other_pins: int) -> bool:
    """Whether two segments' gates are equal one for one once each loses the
    controls it pins, compared by ints and identity up to the first difference."""
    gates, twins = ([g for s in seg for g in ((s,) if type(s) is Instruction else s.gates)]
                    for seg in (steps, other))
    if len(gates) != len(twins):
        return False
    for ins, twin in zip(gates, twins):
        if (ins.angles_deg != twin.angles_deg or ins.opcode is not twin.opcode
                or ins.targets != twin.targets or ins.mux_controls != twin.mux_controls
                or _controls(ins, ~pins) != _controls(twin, ~other_pins)):
            return False
    return True


def _saving(steps: int, executions: int, n: int, cols: int, rows: int,
            reads: int = 0, pins: int = 0) -> float:
    """Seconds saved by a product in place of `steps` steps on the state at
    each execution: a stack of 2^reads matrices of 2^rows rows, over the
    amplitudes that `pins` pinned bits select, with a transpose of the state
    unless its rows span the register, and a build of the steps on 2^(pins
    + reads + 2 rows) amplitudes.  A segment operator on k qubits has rows
    k and reads 0."""
    amplitudes = (1 << n) * cols
    step = _STEP_S + _AMPLITUDE_S * amplitudes
    entry = _MATVEC_ENTRY_S if cols == 1 else _GEMM_ENTRY_S
    product = (_PRODUCT_S + _BATCH_S * ((1 << reads) - 1)
               + entry * (1 << rows) * (amplitudes >> pins))
    if rows < n:
        product += step
    build = steps * (_STEP_S + _AMPLITUDE_S * (1 << pins + reads + 2 * rows))
    return executions * (steps * step - product) - build


def _run_steps(psi: np.ndarray, steps: list, axis) -> None:
    for step in steps:
        kind = type(step)
        if kind is Instruction:
            _apply_gate(psi, step, axis)
        elif kind is _Swaps:
            _permute(psi, step.exchange)
        elif kind is _Block:
            view, matrices = step.view, step.matrices
            view[...] = (matrices @ view.reshape(*matrices.shape[:2], -1)).reshape(view.shape)
        elif step.table is None:
            for ins in step.gates:
                _apply_gate(psi, ins, axis)
        else:
            index0, index1, *entries = step.table
            _mix(psi[index0], psi[index1], *entries)


def _block(steps: list, psi: np.ndarray, axis, masks: tuple) -> _Block:
    """The _Block of steps, from the masks of the bits they pin, of those of
    them that are on, of the bits C they only read and of their targets T; a
    segment operator is one that pins and reads nothing.  Its matrices are
    the steps on a batch of 2^|T| identities, one on T for each value of the
    bits they pin and read, in the state's layout, taken at the pinned values."""
    pinned, on, reads, targets = masks
    n = len(axis)
    dim = 1 << targets.bit_count()
    bits = range(n - 1, -1, -1)  # descending, so bit b is on axis n - 1 - b
    batch = np.eye(dim, dtype=complex).reshape(*(2 if targets >> b & 1 else 1 for b in bits), dim)
    if pinned | reads:
        batch = np.array(np.broadcast_to(batch, (*(2 if (pinned | reads | targets) >> b & 1
                                                   else 1 for b in bits), dim)))
    _run_steps(batch, steps, axis)
    order = [n - 1 - b for mask in (pinned, reads, targets) for b in bits if mask >> b & 1]
    at = tuple(on >> b & 1 for b in bits if pinned >> b & 1)
    matrices = batch.transpose(*order, *(a for a in range(n + 1) if a not in order))[at]
    return _Block(matrices.reshape(-1, dim, dim), _view(psi, pinned, on, order[len(at):]))


def _view(psi: np.ndarray, pinned: int, on: int, front: list) -> np.ndarray:
    """The view of the state a product multiplies: pins fixed, `front` leading."""
    n = psi.ndim - 1
    view = psi[tuple(_PIN[on >> b & 1] if pinned >> b & 1 else slice(None)
                     for b in range(n - 1, -1, -1))]
    return view.transpose(*front, *(a for a in range(n + 1) if a not in front))


def _cut(runs: list, executions: int, psi: np.ndarray, axis, cols: int,
         budget: int) -> tuple[list, int]:
    """A stretch of tabled runs cut into _Blocks and runs: from each run on,
    the block of two or more runs that saves most by `_saving`, if one
    saves and fits the budget; it stops growing where one more step of its
    present widths would save nothing.  Returns the steps and the budget
    left."""
    n = len(axis)
    steps, i = [], 0
    while i < len(runs):
        best, end, targets, reads, on, off = 0.0, i + 1, 0, 0, -1, -1
        for j in range(i, len(runs)):
            targets |= 1 << runs[j].gates[0].targets[0]
            reads |= runs[j].bits
            on &= runs[j].pins[0]
            off &= runs[j].pins[1]
            if j == i:
                continue
            pinned = on | off
            only = reads & ~targets & ~pinned
            widths = (targets.bit_count(), only.bit_count(), pinned.bit_count())
            if 16 << widths[1] + 2 * widths[0] > budget:
                break
            saving = _saving(j + 1 - i, executions, n, cols, *widths)
            if saving > best:
                best, end, masks = saving, j + 1, (pinned, on, only, targets)
            if _saving(j + 2 - i, executions, n, cols, *widths) <= saving:
                break
        if end - i > 1:
            block = _block(runs[i:end], psi, axis, masks)
            budget -= block.matrices.nbytes
            steps.append(block)
        else:
            steps.append(runs[i])
        i = end
    return steps, budget


def _blocks(segments: dict, psi: np.ndarray, axis, cols: int, budget: int) -> None:
    """Cut each stretch of two or more consecutive tabled runs, in the
    segments that get no operator, by `_cut`: each distinct stretch, by its
    runs' identities, once, with its executions summed over its places."""
    stretches: dict = {}  # run identities -> [runs, executions]
    places = []  # (segment, start, end, key), in order
    for segment in segments.values():
        if segment.operator is not None:
            continue
        steps, start = segment.steps, 0
        for end in range(len(steps) + 1):
            if end < len(steps) and type(steps[end]) is _Run and steps[end].table is not None:
                continue
            if end - start > 1:
                key = tuple(map(id, steps[start:end]))
                stretches.setdefault(key, [steps[start:end], 0])[1] += segment.executions
                places.append((segment, start, end, key))
            start = end + 1
    cuts = {}
    for key, (runs, executions) in stretches.items():
        cuts[key], budget = _cut(runs, executions, psi, axis, cols, budget)
    for segment, start, end, key in reversed(places):  # later places first: indices hold
        segment.steps[start:end] = cuts[key]


def _execute(amp: np.ndarray, psi: np.ndarray, plan: list, axis) -> None:
    for node in plan:
        if node.operator is None:
            if type(node) is _Segment:
                _run_steps(psi, node.steps, axis)
            else:
                for _ in range(node.reps):
                    _execute(amp, psi, node.plan, axis)
        elif node.view is None:  # the whole register: no transpose, no reshape
            amp[...] = node.operator @ amp
        else:
            view = node.view
            view[...] = (node.operator @ view.reshape(len(node.operator), -1)).reshape(view.shape)


def _offers(segments: dict, n: int, cols: int) -> list:
    """The operators that would pay, the most saving first, (seconds saved, its
    qubits, the (segment, pinned, on) masks it serves), as the module says."""
    offers, groups = [], {}
    for segment in segments.values():
        steps = segment.steps
        support, on, off = _masks(steps)
        if segment.executions < 2 and not on | off:  # a single run may only join a group
            continue
        own = max(((_saving(len(steps), segment.executions, n, cols, qubits.bit_count()), qubits,
                    [(segment, 0, 0)]) for qubits in (support, (1 << n) - 1)),
                  key=operator.itemgetter(0)) if segment.executions > 1 else (0.0, support, [])
        if not on | off:
            offers.append(own)
            continue
        ends = [steps[i] if type(steps[i]) is Instruction else steps[i].gates[i] for i in (0, -1)]
        key = (len(steps), support & ~(on | off), (on | off).bit_count(),
               *((ins.opcode, ins.targets, ins.angles_deg) for ins in ends))
        groups.setdefault(key, []).append((own, segment, on | off, on))

    def shared(key: tuple, group: list) -> float:
        """The saving of one operator for the group, if more than its own."""
        steps, qubits, pins = key[:3]
        saving = _saving(steps, sum(member[1].executions for member in group), n, cols,
                         qubits.bit_count(), pins=pins)
        return saving if saving > sum(max(member[0][0], 0.0) for member in group) else 0.0

    for key, members in groups.items():
        while members and shared(key, members):  # else no gate is compared
            first, same, rest = members[0], [], []
            for member in members:
                (same if member is first or _same(first[1].steps, first[2], member[1].steps,
                                                  member[2]) else rest).append(member)
            saving, members = shared(key, same), rest
            if saving:
                offers.append((saving, key[1], [member[1:] for member in same]))
            else:
                offers.extend(member[0] for member in same)
        offers.extend(member[0] for member in members)
    return sorted((offer for offer in offers if offer[0] > 0), key=operator.itemgetter(0),
                  reverse=True)


def _evolve(circuit: Circuit, amp: np.ndarray) -> None:
    """Apply every gate in place to `amp`, of shape (2^n, columns)."""
    n = circuit.num_qubits
    cols = amp.shape[1]
    # One layout, a single column included: bit b on axis -2 - b, the columns last.
    psi = amp.reshape((2,) * n + (cols,))
    axis = tuple(range(-2, -n - 2, -1))
    nests, runs, segments = _plan(circuit.body)
    for segment in segments.values():
        for step in segment.steps:
            if type(step) is _Swaps and step.exchange is None:
                step.exchange = _exchange(step.gates, axis, n + 1)
    for run in runs.values():  # before the offers, which read their masks
        if len(run.gates) > 1 and run.executions > 1:
            run.bits, run.pins, run.table = _table(run.gates, axis, n + 1)
    budget, taken = _OPERATOR_BYTES, []
    for _, qubits, members in _offers(segments, n, cols):
        if 16 << 2 * qubits.bit_count() <= budget:
            budget -= 16 << 2 * qubits.bit_count()
            taken.append((qubits, members))
            for i, (segment, _, _) in enumerate(members):  # one build runs them all
                for step in segment.steps:
                    if type(step) is _Run and len(step.gates) == 1:
                        step.executions -= segment.executions - (i == 0)
    for run in runs.values():  # a lone MP_Y's, once a build counts once
        if len(run.gates) == 1 and run.executions > 2:
            run.bits, run.pins, run.table = _table(run.gates, axis, n + 1)
    for qubits, members in taken:
        segment, pinned, on = members[0]
        matrix = _block(segment.steps, psi, axis, (pinned, on, 0, qubits)).matrices[0]
        front = [n - 1 - b for b in range(n - 1, -1, -1) if qubits >> b & 1]
        for segment, pinned, on in members:
            segment.operator = matrix
            if qubits != (1 << n) - 1:
                segment.view = _view(psi, pinned, on, front)
    loops: dict = {}  # (id(operator), reps) -> the Loops of one segment with that operator
    for nest in nests:
        if nest.reps > 1 and len(nest.plan) == 1 and nest.plan[0].operator is not None:
            loops.setdefault((id(nest.plan[0].operator), nest.reps), []).append(nest)
    entry = _MATVEC_ENTRY_S if cols == 1 else _GEMM_ENTRY_S
    for (_, reps), group in loops.items():  # one product each, where that pays
        matrix, view = group[0].plan[0].operator, group[0].plan[0].view
        product = _PRODUCT_S + entry * len(matrix) * (amp.size if view is None else view.size)
        saved = sum(nest.executions for nest in group) * (reps - 1) * product
        squarings = 2 * (reps.bit_length() - 1) * len(matrix) ** 3 * _GEMM_ENTRY_S
        if matrix.nbytes <= budget and saved > squarings:
            budget -= matrix.nbytes
            power = np.linalg.matrix_power(matrix, reps)
            for nest in group:
                nest.operator, nest.view = power, nest.plan[0].view
    _blocks(segments, psi, axis, cols, budget)
    _execute(amp, psi, nests[0].plan, axis)


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a state vector of matching dimension."""
    if circuit.num_qubits > MAX_STATE_QUBITS:
        raise ValueError(
            f"apply supports at most {MAX_STATE_QUBITS} qubits, got {circuit.num_qubits}")
    dim = 1 << circuit.num_qubits
    amp = np.array(state, dtype=complex, ndmin=1)
    if amp.shape[0] != dim:
        raise ValueError(f"state has dimension {amp.shape[0]}, circuit needs {dim}")
    _evolve(circuit, amp.reshape(dim, -1))
    return amp


def to_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of a circuit; column k is the image of basis state k."""
    if circuit.num_qubits > MAX_MATRIX_QUBITS:
        raise ValueError(
            f"to_matrix supports at most {MAX_MATRIX_QUBITS} qubits, "
            f"got {circuit.num_qubits}")
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    _evolve(circuit, u)
    return u


def basis_state(num_qubits: int, index: int = 0) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state
