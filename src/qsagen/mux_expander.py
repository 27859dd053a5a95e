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

`expand_file` is `parse_english` followed by `ir.render` with each MP_Y
written as its ladder: no expanded Circuit is built, and each distinct input
line is expanded and rendered once.
"""
from __future__ import annotations

from .ir import Circuit, Control, Instruction, Opcode, parse_english, render, roty, sigx


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
    """Expand every multiplexor of a parsed file pair.

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
    ops, english, picture = render(
        circuit, lambda ins: expand_mux(ins) if ins.opcode is Opcode.MP_Y else (ins,))
    log = (f"Compilation Mode: Exact SEO\n"
           f"Number of Elementary Operations: {ops}\n")
    return log, english, picture
