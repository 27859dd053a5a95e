"""IR construction, both writers (golden-pinned), the parser, and counting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsagen import sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full
from qsagen.ir import (Circuit, Control, Instruction, MuxControl, Opcode,
                       ParseError, _Block, count_elementary_ops, dagger, end_loop,
                       format_number, had2, loop, mp_y, p0ph, p1ph, parse_english,
                       phas, render, rotn, rotx, roty, rotz, sigx, sigy, sigz, swap,
                       unrolled, with_control, write_english, write_picture)
from qsagen.markov import AnnealingSchedule, default_problem

from helpers import manual_unroll, random_body, random_circuit

CONTROLS_3F_2T = (Control(3, False), Control(2, True))

GOLDEN_ROWS = [
    (swap(1, 0, CONTROLS_3F_2T), 4,
     "SWAP  1  0  IF  3F  2T", "0---@---<--->"),
    (phas(42.7, CONTROLS_3F_2T), 4,
     "PHAS 42.7 IF  3F  2T", "0---@---+--Ph"),
    (p0ph(42.7, 3, (Control(2, True),)), 4,
     "P0PH 42.7 AT  3 IF 2T", "0P--@   |   |"),
    (p1ph(42.7, 3, (Control(2, True),)), 4,
     "P1PH 42.7 AT  3 IF 2T", "@P--@   |   |"),
    (sigx(1, CONTROLS_3F_2T), 4,
     "SIGX  AT  1  IF  3F  2T", "0---@---X   |"),
    (sigy(1, CONTROLS_3F_2T), 4,
     "SIGY  AT  1  IF  3F  2T", "0---@---Y   |"),
    (sigz(1, CONTROLS_3F_2T), 4,
     "SIGZ  AT  1  IF  3F  2T", "0---@---Z   |"),
    (had2(1, CONTROLS_3F_2T), 4,
     "HAD2  AT  1  IF  3F  2T", "0---@---H   |"),
    (rotx(23.7, 1, CONTROLS_3F_2T), 4,
     "ROTX  23.7  AT  1  IF  3F  2T", "0---@---Rx  |"),
    (roty(23.7, 1, CONTROLS_3F_2T), 4,
     "ROTY  23.7  AT  1  IF  3F  2T", "0---@---Ry  |"),
    (rotz(23.7, 1, CONTROLS_3F_2T), 4,
     "ROTZ  23.7  AT  1  IF  3F  2T", "0---@---Rz  |"),
    (rotn(30.0, 40.0, 11.0, 1, CONTROLS_3F_2T), 4,
     "ROTN  30.0 40.0 11.0  AT  1  IF  3F  2T", "0---@---R   |"),
    (mp_y(3, (MuxControl(2, 1), MuxControl(1, 0)), (30.0, 10.5, 11.0, 83.1),
          (Control(0, True),)), 5,
     "MP_Y  AT  3 IF 2(1 1(0 0T BY 30.0 10.5 11.0 83.1",
     "|   Ry--(1--(0--@"),
]


@pytest.mark.parametrize("ins,n,eng,pic", GOLDEN_ROWS,
                         ids=[row[2].split()[0] for row in GOLDEN_ROWS])
def test_golden_rows(ins, n, eng, pic):
    circuit = Circuit(n, (ins,))
    assert write_english(circuit) == eng + "\n"
    assert write_picture(circuit) == pic + "\n"


def test_golden_loop_lines():
    # a LOOP whose line index is 5, to match the table's label
    body = tuple(had2(0) for _ in range(5)) + (loop(2), sigx(0), end_loop())
    circuit = Circuit(1, body)
    eng = write_english(circuit).splitlines()
    pic = write_picture(circuit).splitlines()
    assert eng[5] == "LOOP 5 REPS: 2"
    assert eng[7] == "NEXT 5"
    assert pic[5] == "LOOP 5 REPS:2"
    assert pic[7] == "NEXT 5"


def test_loop_labels_equal_line_index():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        body = random_body(rng, n)
        circuit = Circuit(n, body)
        assert circuit.body == tuple(body)  # construction never rewrites
        open_labels = []
        for i, line in enumerate(write_english(circuit).splitlines()):
            if line.startswith("LOOP"):
                assert line.split()[1] == str(i)
                open_labels.append(line.split()[1])
            elif line.startswith("NEXT"):
                assert line.split()[1] == open_labels.pop()
        assert not open_labels


def test_parse_table_row_example():
    circuit = parse_english("SIGX  AT  1  IF  3F  2T\n")
    assert circuit.body == (sigx(1, CONTROLS_3F_2T),)
    assert circuit.num_qubits == 4  # inferred


def test_parse_empty_file():
    circuit = parse_english("")
    assert circuit.body == ()
    assert write_english(circuit) == ""


def test_parse_unknown_opcode():
    with pytest.raises(ParseError, match="line 1.*unknown opcode.*SIGQ"):
        parse_english("SIGQ AT 1\n")


@pytest.mark.parametrize("text,pattern", [
    ("SIGX AT x\n", "expected an integer"),
    ("SIGX AT 1 IF 3G\n", "bad control token"),
    ("ROTY q AT 1\n", "expected a number"),
    ("SIGX 1\n", "expected 'AT'"),
    ("MP_Y  AT  1 IF 0(0\n", "missing its BY"),
    ("MP_Y  AT  1 IF 0(0 BY 1.0\n", "needs 2 angles"),
    ("PHAS 10.0 IF\n", "IF with no controls"),
    ("\n", "blank line"),
    ("NEXT 0\n", "NEXT without an open LOOP"),
    ("LOOP 1 REPS: 2\nSIGX  AT  0\nNEXT 1\n", "must equal its line index"),
    ("LOOP 0 REPS: 2\nSIGX  AT  0\nNEXT 3\n", "does not match open LOOP"),
    ("LOOP 0 REPS: 2\nSIGX  AT  0\n", "never closed"),
    ("LOOP 0 REPS: 0\nNEXT 0\n", "line 1: LOOP repetitions must be >= 1"),
    ("PHAS inf\n", "finite"),
    ("SIGX AT\n", "unexpected end of line"),
    ("ROTN 1 2 AT 0\n", "expected a number"),
    ("PHAS 1.0 AT 0\n", "expected 'IF'"),
    ("P0PH 1.0 0\n", "expected 'AT'"),
    ("SWAP 1\n", "unexpected end of line"),
    ("SWAP 1 1\n", "distinct"),
    ("SIGX AT 0 IF 1(0\n", "bad control token"),
    ("MP_Y AT 0\n", "expected 'IF'"),
    ("MP_Y 0 IF 1(0 BY 1 2\n", "expected 'AT'"),
    ("HAD2 AT 0 IF 1T extra\n", "bad control token"),
])
def test_parse_errors(text, pattern):
    with pytest.raises(ParseError, match=pattern):
        parse_english(text)


def test_parse_reports_line_number():
    err = None
    try:
        parse_english("SIGX  AT  0\nHAD2  AT  zz\n")
    except ParseError as caught:
        err = caught
    assert err is not None and err.line == 2


@pytest.mark.parametrize("text,num_qubits,line,token", [
    # a repeated line out of range is reported at its first occurrence
    ("HAD2  AT  0\nSIGX  AT  7\nHAD2  AT  0\nSIGX  AT  7\n", 3, 2, None),
    # a bad line after many repeats of a good one keeps its own line and token
    ("SIGX  AT  0\n" * 50 + "SIGX  AT  0  IF  1G\n", None, 51, "1G"),
    # a repeated bad line is reported at its first occurrence
    ("HAD2  AT  0\n" + "SIGX AT x\n" * 3, None, 2, "x"),
    # NEXT labels are checked on every line, also when the text repeats
    ("LOOP 0 REPS: 2\nSIGX  AT  0\nNEXT 0\nLOOP 3 REPS: 2\nSIGX  AT  0\nNEXT 0\n",
     None, 6, None),
])
def test_parse_error_names_first_bad_line(text, num_qubits, line, token):
    with pytest.raises(ParseError) as caught:
        parse_english(text, num_qubits=num_qubits)
    assert (caught.value.line, caught.value.token) == (line, token)


def test_parse_respects_supplied_qubit_count():
    assert parse_english("SIGX  AT  1\n", num_qubits=5).num_qubits == 5
    with pytest.raises(ParseError, match="out of range"):
        parse_english("SIGX  AT  7\n", num_qubits=3)


def test_roundtrip_handmade_loops():
    body = (
        loop(3),
        sigx(1, (Control(0, True),)),
        loop(2),
        mp_y(2, (MuxControl(0, 0),), (12.5, -45.0)),
        end_loop(),
        end_loop(),
        phas(-7.25),
    )
    circuit = Circuit(3, body)
    text = write_english(circuit)
    again = parse_english(text)
    assert again == circuit
    assert write_english(again) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_random(seed):
    circuit = random_circuit(np.random.default_rng(seed))
    text = write_english(circuit)
    again = parse_english(text, num_qubits=circuit.num_qubits)
    assert again == circuit
    assert write_english(again) == text


def test_line_counts_match():
    rng = np.random.default_rng(5)
    for _ in range(20):
        circuit = random_circuit(rng)
        eng = write_english(circuit).splitlines()
        pic = write_picture(circuit).splitlines()
        assert len(eng) == len(pic) == len(circuit.body)


def test_picture_width_bound():
    rng = np.random.default_rng(6)
    for _ in range(40):
        circuit = random_circuit(rng)
        lines = write_picture(circuit).splitlines()
        for ins, line in zip(circuit.body, lines):
            assert not line.endswith(" ")
            if not ins.is_loop_marker:
                assert len(line) <= 4 * circuit.num_qubits


def _expected_column_char(ins, bit, n, line):
    """Independent model of what sits on a qubit column in a picture row."""
    if ins.opcode is Opcode.SWAP:
        hi, lo = ins.targets
        if bit == hi:
            return "<"
        if bit == lo:
            return ">"
    elif ins.opcode is Opcode.PHAS:
        free = [b for b in range(n) if b not in {c.bit for c in ins.controls}]
        if free and bit == min(free):
            return "P" if bit == n - 1 else "h"
    elif bit == ins.targets[0]:
        return {Opcode.SIGX: "X", Opcode.SIGY: "Y", Opcode.SIGZ: "Z",
                Opcode.HAD2: "H", Opcode.ROTX: "R", Opcode.ROTY: "R",
                Opcode.ROTZ: "R", Opcode.ROTN: "R", Opcode.P0PH: "0",
                Opcode.P1PH: "@", Opcode.MP_Y: "R"}[ins.opcode]
    for c in ins.controls:
        if c.bit == bit:
            return "@" if c.on else "0"
    for m in ins.mux_controls:
        if m.bit == bit:
            return "("
    return "|+"  # idle: wordline, or wire crossing


def test_picture_columns_consistent_with_operands():
    rng = np.random.default_rng(7)
    for _ in range(60):
        circuit = random_circuit(rng, loops=False)
        n = circuit.num_qubits
        lines = write_picture(circuit).splitlines()
        for ins, line in zip(circuit.body, lines):
            for bit in range(n):
                column = 4 * (n - 1 - bit)
                char = line[column] if column < len(line) else " "
                expect = _expected_column_char(ins, bit, n, line)
                assert char in expect, (line, bit, char, expect)


def test_phas_controlled_everywhere_still_draws():
    circuit = Circuit(2, (phas(180.0, (Control(1, False), Control(0, False))),))
    line = write_picture(circuit).splitlines()[0]
    assert line.startswith("0---0")
    assert "Ph" in line and len(line) <= 8


def test_count_examples():
    a = Circuit(1, (loop(3), sigx(0), had2(0), end_loop()))
    assert count_elementary_ops(a) == 6
    assert count_elementary_ops(Circuit(1)) == 0
    b = Circuit(1, (loop(2), loop(3), sigx(0), end_loop(), end_loop()))
    assert count_elementary_ops(b) == 6
    c = Circuit(2, (mp_y(1, (MuxControl(0, 0),), (1.0, 2.0)),))
    assert count_elementary_ops(c) == 1


def test_count_matches_manual_unroll():
    rng = np.random.default_rng(8)
    for _ in range(30):
        circuit = random_circuit(rng)
        assert count_elementary_ops(circuit) == len(manual_unroll(circuit.body))
        assert count_elementary_ops(circuit) == len(list(unrolled(circuit.body)))


def tree_shape(nodes: list) -> tuple:
    """A loop tree as nested tuples of node identities and repetitions."""
    return tuple((id(node), node.reps, id(node.body), tree_shape(node.body))
                 if isinstance(node, _Block) else id(node) for node in nodes)


def test_loop_tree_is_built_once(monkeypatch):
    rng = np.random.default_rng(10)
    circuits = [random_circuit(rng) for _ in range(20)]
    config = GeneratorConfig(default_problem(2), PEParams(2, 1, 2), AnnealingSchedule(0.5, 2))
    circuits.append(parse_english(write_english(emit_full(config, prep=True))))
    shapes = [tree_shape(circuit.tree) for circuit in circuits]

    def rebuilt(body):
        raise AssertionError("the loop tree was built again")

    monkeypatch.setattr("qsagen.ir._nest", rebuilt)
    monkeypatch.setattr("qsagen.sim._nest", rebuilt, raising=False)
    for circuit, shape in zip(circuits, shapes):
        sim.apply(circuit, sim.basis_state(circuit.num_qubits))
        sim.to_matrix(circuit)
        ops, english, picture = render(circuit)
        assert (english, picture) == (write_english(circuit), write_picture(circuit))
        assert ops == count_elementary_ops(circuit)
        assert tree_shape(circuit.tree) == shape


def test_dagger_is_involutive_and_preserves_loops():
    rng = np.random.default_rng(9)
    for _ in range(20):
        circuit = random_circuit(rng)
        back = Circuit(circuit.num_qubits, dagger(dagger(circuit.body)))
        assert back == circuit


def test_dagger_negates_angles_and_reverses():
    body = (roty(30.0, 0), phas(10.0), sigx(1))
    assert dagger(body) == (sigx(1), phas(-10.0), roty(-30.0, 0))


def test_with_control_adds_and_collides():
    body = (sigx(0), loop(2), had2(1), end_loop())
    out = with_control(body, Control(3, True))
    assert out[0].controls == (Control(3, True),)
    assert out[1].opcode is Opcode.LOOP and not out[1].controls
    with pytest.raises(ValueError, match="collides"):
        with_control(body, Control(0, True))


@pytest.mark.parametrize("bad", [
    lambda: swap(1, 1),
    lambda: mp_y(0, (MuxControl(1, 0),), (1.0,)),               # wrong angle count
    lambda: mp_y(0, (MuxControl(1, 1),), (1.0, 2.0)),           # names not 0..k-1
    lambda: mp_y(0, (MuxControl(0, 0),), (1.0, 2.0)),           # target collision
    lambda: sigx(0, (Control(0, True),)),                       # control on target
    lambda: sigx(0, (Control(1, True), Control(1, False))),     # duplicate control
    lambda: Instruction(Opcode.ROTN, (0,), angles_deg=(1.0, 2.0)),  # wrong arity
    lambda: phas(float("nan")),
    lambda: loop(0),
])
def test_invalid_instructions_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        bad()


def test_invalid_circuits_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, (sigx(3),))
    with pytest.raises(ValueError, match="no open LOOP"):
        Circuit(1, (end_loop(),))
    with pytest.raises(ValueError, match="never closed"):
        Circuit(1, (loop(2), sigx(0)))
    with pytest.raises(ValueError, match="line 100 nests deeper than 100"):
        Circuit(1, (loop(1),) * 101 + (sigx(0),) + (end_loop(),) * 101)
    with pytest.raises(ValueError, match="positive"):
        Circuit(0)


def test_format_number():
    assert format_number(30.0) == "30.0"
    assert format_number(42.7) == "42.7"
    assert format_number(-0.0) == "0.0"
    assert format_number(1 / 3) == "0.3333333333333333"
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2
