"""Exact expansion of multiplexor lines into rotations and CNOTs.

A multiplexor with k named controls becomes a ladder of 2**k y-rotations on
its target, interleaved with 2**k CNOTs.  The CNOT after rotation r sits on
the control bit whose name is the position where consecutive Gray-code
words g(r), g(r+1) differ (cyclically, so the ladder returns to word 0 and
the expansion equals the multiplexor exactly, not merely up to phase).

For control word m the CNOTs conjugate rotation r to the sign
(-1)^popcount(m & g(r)), so the ladder angles solve a Hadamard-like linear
system with the closed form

    phi[r] = 2**-k * sum_m (-1)^popcount(m & g(r)) * theta[m].

Angles are solved in the multiplexor's kernel convention and doubled when
written on ROTY lines (whose kernel carries a half angle).  Plain controls
of the original line are attached to every emitted instruction.

`expand_file` makes one pass over the parsed input, with no expanded
Circuit.  It converts each distinct gate object (the parser shares one per
line text), keyed on identity rather than hash, into its english and picture
text and its line count.  A LOOP/NEXT label is the running output line
index; the op count sums line counts times the open loops' repetitions.
"""
from __future__ import annotations

from .ir import (Circuit, Control, Instruction, Opcode, _english_line, _picture_line,
                 parse_english, roty, sigx)


def gray_code(i: int) -> int:
    return i ^ (i >> 1)


def expand_mux(ins: Instruction) -> list[Instruction]:
    """Replace one MP_Y instruction by its exact rotation/CNOT ladder."""
    if ins.opcode is not Opcode.MP_Y:
        raise ValueError(f"expected an MP_Y instruction, got {ins.opcode.value}")
    k = len(ins.mux_controls)
    words = 1 << k
    bit_of_name = {m.name: m.bit for m in ins.mux_controls}
    target = ins.targets[0]
    plain = ins.controls
    out: list[Instruction] = []
    for r in range(words):
        g = gray_code(r)
        # Left to right from 0.0: builtin sum rounds differently from 3.12 on.
        acc = 0.0
        for m, theta in enumerate(ins.angles_deg):
            acc += theta if (m & g).bit_count() % 2 == 0 else -theta
        out.append(roty(2.0 * acc / words, target, plain))
        flip = g ^ gray_code((r + 1) % words)
        name = flip.bit_length() - 1
        out.append(sigx(target, (Control(bit_of_name[name], on=True),) + plain))
    return out


def expand_circuit(circuit: Circuit) -> Circuit:
    """The circuit with every MP_Y line replaced by its ladder.

    Each distinct multiplexor is expanded once and its repeats share the
    ladder's instructions.  Equality merges only angles 0.0 and -0.0, and a
    sum that starts from 0.0 gives both the same ladder, bit for bit.
    """
    body: list[Instruction] = []
    ladders: dict[Instruction, list[Instruction]] = {}
    for ins in circuit.body:
        if ins.opcode is Opcode.MP_Y:
            ladder = ladders.get(ins)
            if ladder is None:
                ladder = ladders[ins] = expand_mux(ins)
            body.extend(ladder)
        else:
            body.append(ins)
    return Circuit(circuit.num_qubits, tuple(body))


def expand_file(eng_text: str, pic_text: str) -> tuple[str, str, str]:
    """Expand every multiplexor of a parsed file pair, in one pass.

    The picture input is validated only for line count (the english file
    fully determines the circuit).  Returns (log tail, english, picture);
    the written loop labels follow the new line numbering.
    """
    circuit = parse_english(eng_text)
    pic_lines = len(pic_text.splitlines())
    if pic_lines != len(circuit.body):
        raise ValueError(
            f"picture file has {pic_lines} line(s) but english file has "
            f"{len(circuit.body)}")
    n = circuit.num_qubits
    chunks: dict[int, tuple[str, str, int]] = {}  # id(gate) -> (english, picture, lines)
    out, open_loops = [], []  # open_loops: (label, weight outside the loop)
    line, ops, weight = 0, 0, 1
    for ins in circuit.body:
        if ins.is_loop_marker:
            if ins.opcode is Opcode.LOOP:
                open_loops.append((line, weight))
                label, weight = line, weight * ins.loop_reps
            else:
                label, weight = open_loops.pop()
            out.append((_english_line(ins, label) + "\n", _picture_line(ins, label, n) + "\n"))
            line += 1
            continue
        chunk = chunks.get(id(ins))
        if chunk is None:
            gates = expand_mux(ins) if ins.opcode is Opcode.MP_Y else (ins,)
            chunk = chunks[id(ins)] = (
                "".join(_english_line(g, None) + "\n" for g in gates),
                "".join(_picture_line(g, None, n) + "\n" for g in gates), len(gates))
        out.append(chunk)
        line += chunk[2]
        ops += weight * chunk[2]
    log = (f"Compilation Mode: Exact SEO\n"
           f"Number of Elementary Operations: {ops}\n")
    return log, "".join(c[0] for c in out), "".join(c[1] for c in out)
