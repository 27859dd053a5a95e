"""Parsing, expanding and writing convert each distinct line once.

Each memoized conversion is checked against its per-line path on bodies
drawn from a small pool, so that lines repeat: equal but distinct objects,
angles of 0.0 and -0.0, nested loops and multiplexors with plain controls.
The one-pass `expand_file` is checked against parse -> `expand_circuit` ->
count and write.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qsagen.ir import (Circuit, Control, MuxControl, Opcode, _english_line,
                       _picture_line, count_elementary_ops, end_loop, loop, mp_y,
                       parse_english, render, rotn, roty, write_english, write_picture)
from qsagen.mux_expander import expand_circuit, expand_file, expand_mux

from helpers import manual_unroll, random_gate

N = 4
SEEDS = range(25)
MUX = (MuxControl(1, 1), MuxControl(0, 0))


def pool(rng: np.random.Generator) -> list:
    gates = [random_gate(rng, N) for _ in range(6)] + [
        roty(0.0, 0), roty(-0.0, 0),
        rotn(0.0, -0.0, 0.0, 1, (Control(2, False),)),
        mp_y(3, MUX, (0.0, -0.0, 30.0, -0.0), (Control(2, True),)),
        mp_y(3, MUX, (-0.0, 0.0, 30.0, 0.0), (Control(2, True),)),
        # the same angles on another target, under another control
        mp_y(2, MUX, (0.0, -0.0, 30.0, -0.0), (Control(3, False),)),
    ]
    return gates + [replace(ins) for ins in gates]


def repeating_body(rng: np.random.Generator, gates: list, items: int = 40,
                   depth: int = 0) -> list:
    body = []
    for _ in range(items):
        if depth < 3 and rng.random() < 0.15:
            body += [loop(int(rng.integers(1, 4))),
                     *repeating_body(rng, gates, 5, depth + 1), end_loop()]
        else:
            body.append(gates[rng.integers(len(gates))])
    return body


def repeating_circuit(seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    return Circuit(N, tuple(repeating_body(rng, pool(rng))))


def signed(body) -> list:
    """Each instruction with the signs of its angles, which == ignores for zeros."""
    return [(ins, tuple(math.copysign(1.0, a) for a in ins.angles_deg)) for ins in body]


@pytest.mark.parametrize("seed", SEEDS)
def test_writers_equal_per_line_rendering(seed):
    circuit = repeating_circuit(seed)
    english, picture, open_loops = [], [], []
    for index, ins in enumerate(circuit.body):
        if ins.opcode is Opcode.LOOP:
            open_loops.append(index)
            english.append(f"LOOP {index} REPS: {ins.loop_reps}")
            picture.append(f"LOOP {index} REPS:{ins.loop_reps}")
        elif ins.opcode is Opcode.NEXT:
            label = open_loops.pop()
            english.append(f"NEXT {label}")
            picture.append(f"NEXT {label}")
        else:
            english.append(_english_line(ins))
            picture.append(_picture_line(ins, N))
    assert write_english(circuit) == "".join(line + "\n" for line in english)
    assert write_picture(circuit) == "".join(line + "\n" for line in picture)
    assert render(circuit)[0] == len(manual_unroll(circuit.body))


@pytest.mark.parametrize("seed", SEEDS)
def test_parser_equals_per_line_parsing(seed):
    circuit = repeating_circuit(seed)
    rng = np.random.default_rng(seed)
    # Spell some zero angles as -0.0: equal instructions, different text.
    lines = [line if rng.random() < 0.5 else
             " ".join("-0.0" if tok == "0.0" else tok for tok in line.split(" "))
             for line in write_english(circuit).splitlines()]
    parsed = parse_english("\n".join(lines) + "\n", num_qubits=N).body
    expected = [ins if ins.is_loop_marker else parse_english(line).body[0]
                for ins, line in zip(circuit.body, lines)]
    assert signed(parsed) == signed(expected)
    gate_lines = {line for ins, line in zip(circuit.body, lines) if not ins.is_loop_marker}
    assert len({id(ins) for ins in parsed if not ins.is_loop_marker}) == len(gate_lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_expander_equals_per_line_expansion(seed):
    circuit = repeating_circuit(seed)
    expected = [gate for ins in circuit.body
                for gate in (expand_mux(ins) if ins.opcode is Opcode.MP_Y else [ins])]
    assert signed(expand_circuit(circuit).body) == signed(expected)


def expansion_case(seed: int) -> tuple[Circuit, str]:
    """A repeating body around multiplexors with plain controls, repeated
    inside loops nested two deep, and its english text with some zeros
    spelled -0.0 and some lines widened: equal instructions, other text."""
    rng = np.random.default_rng(seed)
    gates = pool(rng)
    muxes = [ins for ins in gates if ins.opcode is Opcode.MP_Y and ins.controls]
    frame = [loop(2), muxes[0], loop(3), muxes[1], *repeating_body(rng, gates, 4, depth=3),
             muxes[0], end_loop(), muxes[-1], end_loop()]
    circuit = Circuit(N, tuple(repeating_body(rng, gates, 15) + frame
                               + repeating_body(rng, gates, 15)))
    lines = []
    for line in write_english(circuit).splitlines():
        if rng.random() < 0.3:
            line = " ".join("-0.0" if tok == "0.0" else tok for tok in line.split(" "))
        if rng.random() < 0.3:
            line = line.replace(" ", "   ") + " "
        lines.append(line)
    return circuit, "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(30))
def test_expand_file_equals_expanded_circuit(seed):
    circuit, eng = expansion_case(seed)
    expanded = expand_circuit(parse_english(eng))
    log = ("Compilation Mode: Exact SEO\n"
           f"Number of Elementary Operations: {count_elementary_ops(expanded)}\n")
    assert expand_file(eng, write_picture(circuit)) == (
        log, write_english(expanded), write_picture(expanded))
