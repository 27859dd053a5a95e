"""Exact expansion of multiplexor lines into rotations and CNOTs.

A multiplexor with k named controls becomes a ladder of 2**k y-rotations on
its target, interleaved with 2**k CNOTs.  The CNOT after rotation r sits on
the control bit whose name is the position where consecutive Gray-code
words g(r), g(r+1) differ (cyclically, so the ladder returns to word 0 and
the expansion equals the multiplexor exactly, not merely up to phase): k
distinct CNOTs, one shared object per control name.

For control word m the CNOTs conjugate rotation r to the sign
(-1)^popcount(m & g(r)), so the ladder angles solve a Hadamard-like linear
system with the closed form

    phi[r] = 2**-k * sum_m (-1)^popcount(m & g(r)) * theta[m].

The sums are numpy vector adds over all r, each left to right over m from
0.0 (builtin sum from 3.12, and np.sum, round differently).  Angles are
solved in the kernel convention and doubled on ROTY lines (whose kernel
carries a half angle).  Plain controls are attached to every emitted gate.
One helper gives both writers the angles and the CNOT order, checked finite.

`expand` is `ir.render` with a hook that writes each distinct MP_Y's ladder
as one text chunk, with no gate per rung.  It is the one expansion of a
whole circuit: the `expand` command streams it to its files, and `verify`
parses the text of `expand_file` back and compares its unitary.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .ir import (Circuit, Control, Instruction, Opcode, _newlines_only, format_number,
                 parse_english, render, roty, sigx)


def gray_code(i: int) -> int:
    return i ^ (i >> 1)


@functools.cache
def _ladder_steps(k: int) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Sign step m turns row m - 1 of (-1)^popcount(m & g(r)) into row m (bits
    0..ctz(m) flip); CNOT r sits on the control named where g(r), g(r+1) differ."""
    words = 1 << k
    bits = ((gray_code(np.arange(words)) << 1) >> np.arange(k + 1)[:, None]) & 1
    flips = 1.0 - 2.0 * np.bitwise_xor.accumulate(bits, axis=0)  # row 0: no flip
    flips.flags.writeable = False  # shared by every call
    names = [(gray_code(r) ^ gray_code((r + 1) % words)).bit_length() - 1 for r in range(words)]
    return tuple(flips[(m & -m).bit_length()] for m in range(words)), tuple(names)


def _ladder(ins: Instruction) -> tuple[Instruction, dict[int, Instruction], list[float], tuple]:
    """An MP_Y's ladder: its rotation at angle 0.0, its CNOTs by control
    name, the rung angles and the name of each rung's CNOT."""
    words, target, plain = len(ins.angles_deg), ins.targets[0], ins.controls
    steps, names = _ladder_steps(len(ins.mux_controls))
    signs, acc = np.ones(words), np.zeros(words)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below
        for step, theta in zip(steps, ins.angles_deg):
            signs *= step
            acc += theta * signs  # exact: theta * (+-1.0) is +-theta
        angles = 2.0 * acc / words
    if not np.isfinite(angles).all():
        raise ValueError("ROTY angles must be finite")
    rung, cnot = roty(0.0, target, plain), sigx(target, plain)
    cnots = {m.name: cnot.with_controls(Control(m.bit)) for m in ins.mux_controls}
    return rung, cnots, angles.tolist(), names


def expand_mux(ins: Instruction) -> list[Instruction]:
    """Replace one MP_Y instruction by its exact rotation/CNOT ladder."""
    if ins.opcode is not Opcode.MP_Y:
        raise ValueError(f"expected an MP_Y instruction, got {ins.opcode.value}")
    rung, cnots, angles, names = _ladder(ins)
    return [g for a, j in zip(angles, names) for g in (rung.with_angles((a,)), cnots[j])]


def _ladder_text(ins: Instruction, frame) -> tuple[str, str, int] | None:
    """The `render` chunk of an MP_Y's ladder, or None for any other gate."""
    if ins.opcode is not Opcode.MP_Y:
        return None
    rung, cnots, angles, names = _ladder(ins)
    head, tail, picture = frame(rung)
    after = {j: (f"{tail}\n{h}{t}\n", f"{picture}\n{p}\n")
             for j, (h, t, p) in zip(cnots, map(frame, cnots.values()))}
    return ("".join([head + format_number(a) + after[j][0] for a, j in zip(angles, names)]),
            "".join([after[j][1] for j in names]), 2 * len(angles))


def _line_count(text: str) -> int:
    """len(text.splitlines()), without the list when "\\n" is the only line
    break in text."""
    if not _newlines_only(text):
        return len(text.splitlines())
    return text.count("\n") + (text[-1:] not in ("", "\n"))


def parse_pair(eng_text: str, pic_text: str) -> Circuit:
    """The circuit of a file pair.  The picture input is validated only for
    line count (the english file fully determines the circuit)."""
    circuit = parse_english(eng_text)
    pic_lines = _line_count(pic_text)
    if pic_lines != len(circuit):
        raise ValueError(
            f"picture file has {pic_lines} line(s) but english file has {len(circuit)}")
    return circuit


def expand(circuit: Circuit, english: Callable[[list[str]], object],
           picture: Callable[[list[str]], object]) -> str:
    """Write a circuit with every multiplexor expanded to english and
    picture, as `render` does; return the log tail.  The written loop labels
    follow the new line numbering."""
    ops = render(circuit, english, picture, _ladder_text)
    return (f"Compilation Mode: Exact SEO\n"
            f"Number of Elementary Operations: {ops}\n")


def expand_file(eng_text: str, pic_text: str) -> tuple[str, str, str]:
    """(log tail, english, picture) of a file pair with every multiplexor
    expanded: `expand` of `parse_pair`, joined in memory."""
    english: list[str] = []
    picture: list[str] = []
    log = expand(parse_pair(eng_text, pic_text), english.extend, picture.extend)
    return log, "".join(english), "".join(picture)
