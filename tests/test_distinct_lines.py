"""Parsing, expanding and writing convert each distinct line once.

Each memoized conversion is checked against its per-line path on bodies
drawn from a small pool, so that lines repeat: equal but distinct objects,
angles of 0.0 and -0.0, nested loops and multiplexors with plain controls.
The parser's operand frames (lines that differ only in their angles) are
checked against the per-line parser, errors included.
The one-pass `expand_file` is checked against parse -> a placement by
placement ladder walk (`helpers.ladders_expanded`) -> count and write.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Opcode, ParseError,
                       _english_line, _picture_line, count_elementary_ops, mp_y,
                       parse_english, render, rotn, roty, write_english, write_picture)
from qsagen.mux_expander import expand_file, expand_mux

from helpers import (flat_lines, ladders_expanded, manual_unroll, per_line_parse_english,
                     random_gate, spliced)

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
            body.append(Loop(int(rng.integers(1, 4)), repeating_body(rng, gates, 5, depth + 1)))
        else:
            body.append(gates[rng.integers(len(gates))])
    return body


def repeating_circuit(seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    return Circuit(N, tuple(repeating_body(rng, pool(rng))))


def signed(lines) -> list:
    """Each instruction with the signs of its angles, which == ignores for
    zeros; loop brackets as they are."""
    return [(ins, tuple(math.copysign(1.0, a) for a in ins.angles_deg))
            if isinstance(ins, Instruction) else ins for ins in lines]


@pytest.mark.parametrize("seed", SEEDS)
def test_writers_equal_per_line_rendering(seed):
    circuit = repeating_circuit(seed)
    english, picture, open_loops = [], [], []
    for index, ins in enumerate(flat_lines(circuit.body)):
        if isinstance(ins, Instruction):
            english.append(_english_line(ins))
            picture.append(_picture_line(ins, N))
        elif ins[0] == "LOOP":
            open_loops.append(index)
            english.append(f"LOOP {index} REPS: {ins[1]}")
            picture.append(f"LOOP {index} REPS:{ins[1]}")
        else:
            label = open_loops.pop()
            english.append(f"NEXT {label}")
            picture.append(f"NEXT {label}")
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
    parsed = flat_lines(parse_english("\n".join(lines) + "\n", num_qubits=N).body)
    written = flat_lines(circuit.body)
    expected = [spliced(parse_english(line).body)[0] if isinstance(ins, Instruction) else ins
                for ins, line in zip(written, lines)]
    assert signed(parsed) == signed(expected)
    gate_lines = {line for ins, line in zip(written, lines) if isinstance(ins, Instruction)}
    assert len({id(ins) for ins in parsed if isinstance(ins, Instruction)}) == len(gate_lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_expander_equals_per_line_expansion(seed):
    circuit = repeating_circuit(seed)
    eng = write_english(circuit)
    expected = [gate for ins in flat_lines(parse_english(eng, num_qubits=N).body) for gate in (
        expand_mux(ins) if isinstance(ins, Instruction) and ins.opcode is Opcode.MP_Y else [ins])]
    _, expanded, _ = expand_file(eng, write_picture(circuit))
    assert signed(flat_lines(parse_english(expanded, num_qubits=N).body)) == signed(expected)


def expansion_case(seed: int) -> tuple[Circuit, str]:
    """A repeating body around multiplexors with plain controls, repeated
    inside loops nested two deep, and its english text with some zeros
    spelled -0.0 and some lines widened: equal instructions, other text."""
    rng = np.random.default_rng(seed)
    gates = pool(rng)
    muxes = [ins for ins in gates if ins.opcode is Opcode.MP_Y and ins.controls]
    frame = [Loop(2, [muxes[0],
                      Loop(3, [muxes[1], *repeating_body(rng, gates, 4, depth=3), muxes[0]]),
                      muxes[-1]])]
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
    expanded = ladders_expanded(parse_english(eng))
    log = ("Compilation Mode: Exact SEO\n"
           f"Number of Elementary Operations: {count_elementary_ops(expanded)}\n")
    assert expand_file(eng, write_picture(circuit)) == (
        log, write_english(expanded), write_picture(expanded))


# One operand frame per entry; each "{}" is an angle.
FRAMES = ("ROTX  {}  AT  0", "ROTY  {}  AT  1  IF  0T  2F", "ROTZ  {}  AT  3  IF  1T",
          "PHAS {}", "PHAS {} IF  0T  1F", "P0PH {} AT  2", "P1PH {} AT  0 IF 3T",
          "ROTN  {} {} {}  AT  2  IF  3F", "MP_Y  AT  3 IF 1(1 0(0 BY {} {} {} {}",
          "MP_Y  AT  0 IF 2(0 BY {} {}", "MP_Y  AT  0 IF 2(0 3T 1F BY {} {}")
ANGLES = ("0.0", "-0.0", "9e1", "+90.", "1e-300", "1e308")


def frame_lines(rng: np.random.Generator, count: int) -> list[str]:
    """Lines drawn from FRAMES (and two angle-free gates), with angles from
    ANGLES; some are spaced wider."""
    frames, lines = FRAMES + ("SIGX  AT  1  IF  0T", "SWAP  3  2"), []
    for _ in range(count):
        frame = frames[rng.integers(len(frames))]
        line = frame.format(*(ANGLES[i] for i in rng.integers(len(ANGLES), size=frame.count("{}"))))
        if rng.random() < 0.3:
            line = " " + line.replace(" ", "   ") + "  "
        lines.append(line)
    return lines


def parse_error(parse, text: str, num_qubits: int | None = None) -> tuple:
    with pytest.raises(ParseError) as info:
        parse(text, num_qubits)
    return str(info.value), info.value.line, info.value.token


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_memo_equals_per_line_parsing(seed):
    rng = np.random.default_rng(seed)
    head, inner, tail = frame_lines(rng, 40), frame_lines(rng, 15), frame_lines(rng, 40)
    text = "\n".join(head + [f"LOOP {len(head)} REPS: 2"] + inner + [f"NEXT {len(head)}"]
                     + tail + head[:10]) + "\n"
    for n in (N, None):
        parsed = flat_lines(parse_english(text, n).body)
        assert signed(parsed) == signed(flat_lines(per_line_parse_english(text, n).body))
    first: dict[tuple, Instruction] = {}
    for ins in parsed:
        if isinstance(ins, Instruction):
            template = first.setdefault((ins.opcode, ins.targets, ins.controls,
                                         ins.mux_controls), ins)
            assert all(getattr(ins, f) is getattr(template, f)
                       for f in ("targets", "controls", "operand_bits"))
    assert len(first) == len(FRAMES) + 2


def bad_frame_lines():
    """(line, the same frame with a bad angle or angle count) pairs."""
    for frame in FRAMES:
        count = frame.count("{}")
        for bad in ("abc", "nan", "inf", "1e999"):
            for slot in range(count):
                yield frame.format(*["1.0"] * count), frame.format(
                    *(bad if i == slot else "-2.5" for i in range(count)))
    yield "PHAS 1.0", "PHAS"
    yield "PHAS 1.0 IF  0T  1F", "PHAS IF  0T  1F"
    yield "ROTN  1.0 2.0 3.0  AT  2  IF  3F", "ROTN  1.0 2.0  AT  2  IF  3F"
    yield "MP_Y  AT  0 IF 2(0 BY 1.0 2.0", "MP_Y  AT  0 IF 2(0 BY 1.0"
    yield "MP_Y  AT  0 IF 2(0 BY 1.0 2.0", "MP_Y  AT  0 IF 2(0 BY 1.0 2.0 3.0"
    yield "MP_Y  AT  0 IF 2(0 BY 1.0 2.0", "MP_Y  AT  0 IF 2(0 BY"


@pytest.mark.parametrize("good,bad", list(bad_frame_lines()))
def test_bad_angles_on_a_known_frame_raise_the_per_line_error(good, bad):
    """A line whose frame is known, in the same span or after a loop, fails
    as it does when parsed alone."""
    for text in (f"{good}\n{bad}\n", f"{good}\nLOOP 1 REPS: 2\n{good}\nNEXT 1\n{bad}\n"):
        assert parse_error(parse_english, text) == parse_error(per_line_parse_english, text)


def test_out_of_range_frame_is_reported_at_its_first_line():
    text = ("ROTY  1.0  AT  0\nLOOP 1 REPS: 2\nROTY  2.0  AT  0  IF  3T\nNEXT 1\n"
            "ROTY  -0.0  AT  0  IF  3T\nROTY  5.0  AT  0  IF  3T\n")
    for parse in (parse_english, per_line_parse_english):
        assert parse_error(parse, text, 3) == (
            "line 3: bit 3 out of range for 3 qubit(s)", 3, None)
