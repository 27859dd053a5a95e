"""Shared test utilities: random circuit generation and independent oracles."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from qsagen.annealer import GeneratorConfig, emit_R_tilde
from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Opcode, ParseError, Seq,
                       _int_token, _parse_gate, _parse_loop, format_number, had2, mp_y, p0ph,
                       p1ph, phas, render, rotn, rotx, roty, rotz, sigx, sigy, sigz, swap)
from qsagen.markov import metropolis
from qsagen.mux_expander import expand_mux
from qsagen.sim import _REAL, _Run, _Swaps
from qsagen.szegedy import WalkLayout, emit_W

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
                depth: int = 0, loops: bool = True) -> list[Instruction | Loop]:
    items: list[Instruction | Loop] = []
    for _ in range(int(rng.integers(0, max_items + 1))):
        if loops and depth < 2 and rng.random() < 0.25:
            inner = random_body(rng, n, max_items=4, depth=depth + 1, loops=loops)
            items.append(Loop(int(rng.integers(1, 4)), inner))
        else:
            items.append(random_gate(rng, n))
    return items


def random_circuit(rng: np.random.Generator, num_qubits: int | None = None,
                   max_items: int = 8, loops: bool = True) -> Circuit:
    n = num_qubits if num_qubits is not None else int(rng.integers(1, 6))
    return Circuit(n, tuple(random_body(rng, n, max_items=max_items, loops=loops)))


RUN_GATE_MAKERS = "roty rotn p1ph had2 cnot mpy".split()


def random_run_gate(rng: np.random.Generator, n: int, target: int,
                    kind: str | None = None) -> Instruction:
    """One 2x2 gate on `target`, of the given kind or a random one of those
    in RUN_GATE_MAKERS."""
    others = [int(b) for b in rng.permutation(n) if b != target]
    if kind is None:
        kind = RUN_GATE_MAKERS[rng.integers(len(RUN_GATE_MAKERS))]

    def controls(avail, limit):
        count = int(rng.integers(0, min(limit, len(avail)) + 1))
        return [Control(b, bool(rng.integers(2))) for b in avail[:count]]

    angle = lambda: float(rng.uniform(-180.0, 180.0))
    if kind == "cnot" and others:
        return sigx(target, [Control(others[0], bool(rng.integers(2)))] + controls(others[1:], 1))
    if kind == "mpy" and others:
        k = int(rng.integers(1, min(3, len(others)) + 1))
        mux = [MuxControl(b, name) for name, b in enumerate(others[:k])]
        return mp_y(target, mux, [angle() for _ in range(1 << k)], controls(others[k:], 1))
    if kind == "rotn":
        return rotn(angle(), angle(), angle(), target, controls(others, 2))
    if kind == "p1ph":
        return p1ph(angle(), target, controls(others, 2))
    if kind == "had2":
        return had2(target, controls(others, 1))
    return roty(angle(), target, controls(others, 2))


def random_run_body(rng: np.random.Generator, n: int, max_parts: int = 6,
                    depth: int = 0) -> list[Instruction | Loop]:
    """A ladder-heavy body: stretches of 2x2 gates on one target, some
    repeated as the same objects or as equal copies, some in loops, some
    split by a loop, some whose controls cover every other qubit, some
    ladders of y-rotations, CNOTs and multiplexors only, some of mixed kinds
    (whose HAD2, P1PH and ROTN gates split them into runs), and PHAS/SWAP
    lines between them."""
    body: list[Instruction | Loop] = []
    runs: list[list[Instruction]] = []
    for _ in range(int(rng.integers(1, max_parts + 1))):
        choice = rng.random()
        target = int(rng.integers(n))
        if runs and choice < 0.15:
            body.extend(runs[rng.integers(len(runs))])
        elif runs and choice < 0.25:
            body.extend(replace(ins) for ins in runs[rng.integers(len(runs))])
        elif depth < 2 and choice < 0.45:
            body.append(Loop(int(rng.integers(1, 4)),
                             random_run_body(rng, n, max_parts=3, depth=depth + 1)))
        elif choice < 0.6:
            # same-target gates on both sides of a LOOP and of its NEXT
            body.append(random_run_gate(rng, n, target))
            body.append(Loop(int(rng.integers(1, 4)),
                             [random_run_gate(rng, n, target)
                              for _ in range(int(rng.integers(1, 3)))]))
            body.append(random_run_gate(rng, n, target))
        elif choice < 0.7 and n >= 2:
            run = [sigx(target, (Control(b, bool(rng.integers(2))),))
                   for b in range(n) if b != target]
            run.append(roty(float(rng.uniform(-180.0, 180.0)), target))
            runs.append(run)
            body.extend(run)
        elif choice < 0.8:
            # y-rotations between CNOTs, a multiplexor here and there, repeated
            run = [random_run_gate(rng, n, target,
                                   "mpy" if rng.random() < 0.2 else ("roty", "cnot")[i % 2])
                   for i in range(int(rng.integers(2, 9)))]
            runs.append(run)
            body.append(Loop(2, run))
        else:
            run = [random_run_gate(rng, n, target) for _ in range(int(rng.integers(2, 7)))]
            runs.append(run)
            body.extend(run)
        if rng.random() < 0.3:
            body.append(phas(float(rng.uniform(-180.0, 180.0)),
                             [Control(target, bool(rng.integers(2)))]))
        elif rng.random() < 0.2 and n >= 2:
            body.append(swap(target, (target + 1) % n))
    return body


def random_run_circuit(rng: np.random.Generator) -> Circuit:
    n = int(rng.integers(2, 6))
    return Circuit(n, tuple(random_run_body(rng, n)))


def spliced(tree):
    """A Circuit or a body with each Seq replaced by its contents, Seqs
    nested in it too, inside Loops as well: the same gates and Loops,
    written the same way, with no Seq."""
    if isinstance(tree, Circuit):
        return Circuit(tree.num_qubits, spliced(tree.body))
    out: list = []
    for node in tree:
        if isinstance(node, Seq):
            out.extend(spliced(node.body))
        elif isinstance(node, Loop):
            out.append(Loop(node.reps, spliced(node.body)))
        else:
            out.append(node)
    return tuple(out)


def ladders_expanded(tree):
    """A Circuit or a body with each MP_Y replaced by its `expand_mux`
    ladder, in Seqs and Loops too, placement by placement: the oracle of
    the expand path, with no sharing and no cache."""
    if isinstance(tree, Circuit):
        return Circuit(tree.num_qubits, ladders_expanded(tree.body))
    out: list = []
    for node in tree:
        if isinstance(node, Seq):
            out.append(Seq(ladders_expanded(node.body)))
        elif isinstance(node, Loop):
            out.append(Loop(node.reps, ladders_expanded(node.body)))
        elif node.opcode is Opcode.MP_Y:
            out.extend(expand_mux(node))
        else:
            out.append(node)
    return tuple(out)


def ladders(ins: Instruction):
    """The gates an MP_Y is expanded to, and any other gate itself."""
    return expand_mux(ins) if ins.opcode is Opcode.MP_Y else (ins,)


def written_as(convert):
    """A `render` hook that writes each gate as the gates ``convert`` maps it
    to, line by line from render's frame lookup: what `render` writes for
    the spliced-in gates, with no shortcut for a ladder."""
    def write(gate: Instruction, frame):
        gates = convert(gate)
        english = picture = ""
        for g in gates:
            head, tail, pic = frame(g)
            english += f"{head}{' '.join(map(format_number, g.angles_deg))}{tail}\n"
            picture += pic + "\n"
        return english, picture, len(gates)
    return write


def reference_expand_file(circuit: Circuit) -> tuple[str, str, str]:
    """`expand_file` of a circuit's written files, rendered gate by gate from
    `expand_mux`: the reference of the ladder text writer."""
    ops, english, picture = render(circuit, written_as(ladders))
    return (f"Compilation Mode: Exact SEO\nNumber of Elementary Operations: {ops}\n",
            english, picture)


# Two-word MP_Y angles whose ladder overflows: in the sum, in both sums, in the doubling.
OVERFLOWING_LADDERS = {"sum-overflows": (1e308, -1e308), "both-overflow": (-1e308, -1e308),
                       "doubling-overflows": (1e308, 0.0)}


def manual_unroll(body) -> list[Instruction]:
    """Independent loop expansion by literal block copying (counting oracle)."""
    out: list[Instruction] = []
    for node in spliced(body):
        if isinstance(node, Instruction):
            out.append(node)
        else:
            out.extend(manual_unroll(node.body) * node.reps)
    return out


def flat_lines(body) -> list:
    """The lines a body is written as, in order: its gates, with each loop's
    lines between ("LOOP", reps) and ("NEXT",)."""
    out: list = []
    for node in spliced(body):
        if isinstance(node, Instruction):
            out.append(node)
        else:
            out += [("LOOP", node.reps), *flat_lines(node.body), ("NEXT",)]
    return out


def per_line_parse_english(text: str, num_qubits: int | None = None) -> Circuit:
    """The english parser one line at a time, over ``str.splitlines``: the
    oracle of the span parser.  Its bodies hold gates and Loops, no Seq; its
    errors are the ParseErrors (message, line, token) the span parser must
    raise."""
    body: list[Instruction | Loop] = []  # the innermost open block
    gates: dict[str, Instruction] = {}  # gate line text -> its parsed instruction
    open_loops: list[tuple[int, int, Loop, list]] = []  # (label, line number, Loop, outer body)
    for index, raw in enumerate(text.splitlines()):
        ins = gates.get(raw)
        if ins is not None:
            body.append(ins)
            continue
        line_no = index + 1
        tokens = raw.split()
        if not tokens:
            raise ParseError("blank line", line_no)
        try:
            if tokens[0] == "LOOP":
                label, reps = _parse_loop(tokens, line_no)
                if label != index:
                    raise ParseError(
                        f"LOOP label {label} must equal its line index {index}", line_no)
                open_loops.append((label, line_no, Loop(reps), body))
                body = []
            elif tokens[0] == "NEXT":
                if len(tokens) != 2:
                    raise ParseError("NEXT takes exactly one label", line_no)
                label = _int_token(tokens[1], line_no)
                if not open_loops:
                    raise ParseError("NEXT without an open LOOP", line_no)
                open_label, _, loop, outer = open_loops.pop()
                if label != open_label:
                    raise ParseError(
                        f"NEXT label {label} does not match open LOOP {open_label}", line_no)
                outer.append(replace(loop, body=body))
                body = outer
            else:
                try:
                    op = Opcode(tokens[0])
                except ValueError:
                    raise ParseError("unknown opcode", line_no, tokens[0]) from None
                ins = _parse_gate(op, tokens, line_no)
                if num_qubits is not None:
                    for bit in ins.operand_bits:
                        if bit >= num_qubits:
                            raise ParseError(
                                f"bit {bit} out of range for {num_qubits} qubit(s)", line_no)
                gates[raw] = ins
                body.append(ins)
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(str(err), line_no) from None
    if open_loops:
        label, line_no, _, _ = open_loops[-1]
        raise ParseError(f"LOOP {label} is never closed", line_no)

    if num_qubits is None:
        num_qubits = 1 + max((b for ins in gates.values() for b in ins.operand_bits),
                             default=0)
    try:
        return Circuit(num_qubits, body)
    except ValueError as err:
        raise ParseError(str(err)) from None


def scan_steps(gates: tuple, runs: dict) -> list:
    """`sim._steps` with no first-gate memo: every run is scanned gate by
    gate and looked up by its gates' identities.  The reference of the memo."""
    steps: list = []
    i, count = 0, len(gates)
    while i < count:
        gate = gates[i]
        start, op, kind = i, gate.opcode, None
        i += 1
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
        run_gates = gates[start:i]
        key = tuple(map(id, run_gates))
        run = runs.get(key)
        if run is None:
            run = runs[key] = kind(run_gates)
        steps.append(run)
    return steps


def random_stochastic(rng: np.random.Generator, ns: int) -> np.ndarray:
    """A random column-stochastic matrix (columns are Dirichlet samples)."""
    return rng.dirichlet(np.ones(ns), size=ns).T


def random_reversible_chain(rng: np.random.Generator, ns: int) -> tuple[np.ndarray, np.ndarray]:
    """A Metropolis chain (column-stochastic) of a random distribution pi
    under a random symmetric proposal, and pi: reversible, irreducible and
    aperiodic."""
    pi = rng.uniform(0.1, 1.0, ns)
    pi /= pi.sum()
    proposal = rng.uniform(0.0, 1.0, (ns, ns))
    proposal = proposal + proposal.T
    proposal /= 1.01 * proposal.sum(axis=0).max()
    m = proposal * np.minimum(1.0, pi[:, None] / pi[None, :])
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, 1.0 - m.sum(axis=0))
    return m, pi


def per_word_qembed_angles(q: np.ndarray) -> list[tuple[float, ...]]:
    """The embedding's stage angles one control word at a time, each sum a
    strided slice of one column: the oracle of `qembed_angles`."""
    ns = q.shape[0]
    nb = ns.bit_length() - 1
    stages = []
    for s in range(nb):
        angles = []
        for word in range(1 << (nb + s)):
            x = word & (ns - 1)
            prefix = word >> nb
            step = 1 << (s + 1)
            stay = max(q[prefix::step, x].sum(), 0.0)
            flip = max(q[prefix | (1 << s)::step, x].sum(), 0.0)
            angles.append(math.atan2(math.sqrt(flip), math.sqrt(stay)))
        stages.append(tuple(angles))
    return stages


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


def r_tilde(beta: float, config: GeneratorConfig, **kwargs) -> Circuit:
    """R~(beta) as `verify` builds it, against the walk W(beta) emitted on
    the 2*nb walk qubits."""
    walk = emit_W(metropolis(config.problem, beta), WalkLayout(config.nb))
    return emit_R_tilde(walk, config, **kwargs)


# --- dense spectral oracle ------------------------------------------------------

UNITARY_TOL = 1e-8  # eig_unitary: the largest unitarity defect


def unitarity_defect(op: np.ndarray) -> float:
    op = np.asarray(op)
    return float(np.abs(op @ op.conj().T - np.eye(op.shape[0])).max())


def eig_unitary(op: np.ndarray) -> np.ndarray:
    """Eigenphases of a unitary matrix, sorted ascending in (-pi, pi]."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    defect = unitarity_defect(op)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {UNITARY_TOL:.1e})")
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
