"""IR construction, both writers (golden-pinned), the parser, and counting."""
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Opcode,
                       ParseError, _english_line, _picture_line, count_elementary_ops, dagger,
                       format_number, had2, mp_y, p0ph, p1ph, parse_english,
                       phas, render, rotn, rotx, roty, rotz, sigx, sigy, sigz, swap,
                       with_control, write_english, write_picture)
from qsagen.mux_expander import expand_mux

from helpers import (flat_lines, manual_unroll, random_body, random_circuit, spliced,
                     written_as)

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
    assert _english_line(ins) == eng


def test_golden_loop_lines():
    # a LOOP whose line index is 5, to match the table's label
    body = tuple(had2(0) for _ in range(5)) + (Loop(2, (sigx(0),)),)
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
    assert spliced(circuit.body) == (sigx(1, CONTROLS_3F_2T),)
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


def loop_chain(depth: int) -> str:
    """`depth` LOOPs nested one in the next around one gate."""
    return ("".join(f"LOOP {i} REPS: 1\n" for i in range(depth)) + "SIGX  AT  0\n"
            + "".join(f"NEXT {i}\n" for i in reversed(range(depth))))


@pytest.mark.parametrize("text,message", [
    ("NEXT 0\n", "line 1: NEXT without an open LOOP"),
    ("SIGX  AT  0\nLOOP 1 REPS: 2\nLOOP 2 REPS: 3\nSIGX  AT  0\nNEXT 2\n",
     "line 2: LOOP 1 is never closed"),
    ("LOOP 0 REPS: 2\nSIGX  AT  0\nNEXT 3\n",
     "line 3: NEXT label 3 does not match open LOOP 0"),
    (loop_chain(101), "LOOP at line 100 nests deeper than 100"),
], ids=["next-without-loop", "never-closed", "label-mismatch", "too-deep"])
def test_parse_nesting_errors(text, message):
    with pytest.raises(ParseError) as caught:
        parse_english(text)
    assert str(caught.value) == message


def test_parse_accepts_the_deepest_allowed_nesting():
    circuit = parse_english(loop_chain(100))
    assert len(circuit) == 201
    assert count_elementary_ops(circuit) == 1


def test_parse_respects_supplied_qubit_count():
    assert parse_english("SIGX  AT  1\n", num_qubits=5).num_qubits == 5
    with pytest.raises(ParseError, match="out of range"):
        parse_english("SIGX  AT  7\n", num_qubits=3)


def test_roundtrip_handmade_loops():
    body = (
        Loop(3, (
            sigx(1, (Control(0, True),)),
            Loop(2, (mp_y(2, (MuxControl(0, 0),), (12.5, -45.0)),)),
        )),
        phas(-7.25),
    )
    circuit = Circuit(3, body)
    text = write_english(circuit)
    again = parse_english(text)
    assert spliced(again) == circuit
    assert write_english(again) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_roundtrip_random(seed):
    circuit = random_circuit(np.random.default_rng(seed))
    text = write_english(circuit)
    again = parse_english(text, num_qubits=circuit.num_qubits)
    assert spliced(again) == circuit
    assert write_english(again) == text


def test_line_counts_match():
    rng = np.random.default_rng(5)
    for _ in range(20):
        circuit = random_circuit(rng)
        eng = write_english(circuit).splitlines()
        pic = write_picture(circuit).splitlines()
        assert len(eng) == len(pic) == len(circuit)


def test_picture_width_bound():
    rng = np.random.default_rng(6)
    for _ in range(40):
        circuit = random_circuit(rng)
        lines = write_picture(circuit).splitlines()
        for ins, line in zip(flat_lines(circuit.body), lines):
            assert not line.endswith(" ")
            if isinstance(ins, Instruction):
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
    a = Circuit(1, (Loop(3, (sigx(0), had2(0))),))
    assert count_elementary_ops(a) == 6
    assert count_elementary_ops(Circuit(1)) == 0
    b = Circuit(1, (Loop(2, (Loop(3, (sigx(0),)),)),))
    assert count_elementary_ops(b) == 6
    c = Circuit(2, (mp_y(1, (MuxControl(0, 0),), (1.0, 2.0)),))
    assert count_elementary_ops(c) == 1


def test_count_matches_manual_unroll():
    rng = np.random.default_rng(8)
    for _ in range(30):
        circuit = random_circuit(rng)
        assert count_elementary_ops(circuit) == len(manual_unroll(circuit.body))


def test_dagger_is_involutive_and_preserves_loops():
    rng = np.random.default_rng(9)
    for _ in range(20):
        circuit = random_circuit(rng)
        back = Circuit(circuit.num_qubits, dagger(dagger(circuit.body)))
        assert back == circuit


def test_dagger_negates_angles_and_reverses():
    body = (roty(30.0, 0), phas(10.0), sigx(1))
    assert dagger(body) == (sigx(1), phas(-10.0), roty(-30.0, 0))


def replace_dagger(body):
    """dagger by the full constructor: a gate of the five self-inverse opcodes
    is kept as it is, every other gate is rebuilt with its angles negated."""
    keep = (Opcode.SIGX, Opcode.SIGY, Opcode.SIGZ, Opcode.HAD2, Opcode.SWAP)
    return tuple(Loop(node.reps, replace_dagger(node.body)) if isinstance(node, Loop)
                 else node if node.opcode in keep
                 else replace(node, angles_deg=tuple(-a for a in node.angles_deg))
                 for node in reversed(body))


def test_dagger_equals_a_replace_based_inversion():
    c = (Control(2, False),)
    signed_zeros = [roty(0.0, 0, c), roty(-0.0, 1), phas(-0.0, c), p1ph(0.0, 1, c),
                    rotn(0.0, -0.0, 1e-300, 1), rotz(-1e300, 0), sigy(1, c), swap(0, 1, c),
                    mp_y(1, (MuxControl(0, 0),), (-0.0, 0.0), c)]
    rng = np.random.default_rng(11)
    for _ in range(30):
        body = random_body(rng, 3) + [signed_zeros[i] for i in rng.permutation(9)[:4]]
        got, want = dagger(body), replace_dagger(body)
        assert got == want
        for g, w in zip(flat_lines(got), flat_lines(want), strict=True):
            assert repr(vars(g) if isinstance(g, Instruction) else g) == repr(
                vars(w) if isinstance(w, Instruction) else w)
            if isinstance(g, Instruction):
                assert hash(g) == hash(w) and (g is w) == (not g.angles_deg)


@pytest.mark.parametrize("template,angles,message", [
    (roty(1.0, 0), (float("nan"),), "ROTY angles must be finite"),
    (roty(1.0, 0, (Control(1),)), (float("-inf"),), "ROTY angles must be finite"),
    (phas(1.0), (1e308 * 10,), "PHAS angles must be finite"),
    (rotn(1.0, 2.0, 3.0, 0), (1.0, float("inf"), 3.0), "ROTN angles must be finite"),
    (mp_y(0, (MuxControl(1, 0),), (1.0, 2.0)), (1.0, float("nan")),
     "MP_Y angles must be finite"),
    (roty(1.0, 0), (1.0, 2.0), "ROTY needs 1 angle(s), got 2"),
    (p0ph(1.0, 0), (), "P0PH needs 1 angle(s), got 0"),
    (rotn(1.0, 2.0, 3.0, 0), (1.0,), "ROTN needs 3 angle(s), got 1"),
    (sigx(0), (1.0,), "SIGX needs 0 angle(s), got 1"),
    (mp_y(0, (MuxControl(1, 0), MuxControl(2, 1)), (1.0, 2.0, 3.0, 4.0)), (1.0, 2.0),
     "MP_Y with 2 controls needs 4 angles, got 2"),
    (rotx(1.0, 0), (float("nan"),), "ROTX angles must be finite"),
    (rotz(1.0, 1), (), "ROTZ needs 1 angle(s), got 0"),
    (p1ph(1.0, 0, (Control(2, False),)), (float("inf"),), "P1PH angles must be finite"),
    (phas(1.0, (Control(1),)), (1.0, 2.0), "PHAS needs 1 angle(s), got 2"),
    (rotn(1.0, 2.0, 3.0, 0, (Control(1),)), (1.0, 2.0, float("-inf")),
     "ROTN angles must be finite"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_derived_instruction_checks_its_angles(template, angles, message):
    """The same messages as the full constructor, which the derived
    constructor must not skip."""
    for build in (template.with_angles, lambda a: replace(template, angles_deg=a)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(angles)


@pytest.mark.parametrize("template", [
    rotx(1.0, 0), roty(1.0, 2, (Control(0),)), rotz(1.0, 1), phas(1.0), phas(1.0, (Control(1),)),
    p0ph(1.0, 2), p1ph(1.0, 0, (Control(2, False),)), rotn(1.0, 2.0, 3.0, 0, (Control(1),)),
    mp_y(0, (MuxControl(2, 0),), (1.0, 2.0), (Control(1, False),)), sigx(1),
], ids=lambda ins: ins.opcode.value)
def test_derived_instruction_of_every_opcode_equals_the_full_constructor(template):
    count = len(template.angles_deg)
    for angles in ((-0.0,) * count, (1e-300,) * count, tuple(range(count))):
        derived, full = template.with_angles(angles), replace(template, angles_deg=angles)
        assert derived == full and hash(derived) == hash(full)
        assert repr(vars(derived)) == repr(vars(full))


def test_derived_instruction_equals_the_full_constructor():
    template = mp_y(3, (MuxControl(0, 1), MuxControl(2, 0)), (1.0, 2.0, 3.0, 4.0),
                    (Control(5, False), Control(4)))
    angles = (-0.0, 1e-300, np.float64(2.5), 7)
    derived = template.with_angles(angles)
    full = replace(template, angles_deg=angles)
    assert derived == full and hash(derived) == hash(full)
    assert repr(vars(derived)) == repr(vars(full))
    assert all(type(a) is float for a in derived.angles_deg)
    assert template.angles_deg == (1.0, 2.0, 3.0, 4.0)
    assert all(getattr(derived, f) is getattr(template, f)
               for f in ("opcode", "targets", "controls", "mux_controls", "operand_bits"))


def test_with_control_adds_and_collides():
    body = (sigx(0), Loop(2, (had2(1),)))
    out = with_control(body, Control(3, True))
    assert out[0].controls == (Control(3, True),)
    assert out[1] == Loop(2, (had2(1, (Control(3, True),)),))
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
    lambda: Loop(0),
])
def test_invalid_instructions_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        bad()


def test_invalid_circuits_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, (sigx(3),))
    chain = (sigx(0),)
    for _ in range(101):
        chain = (Loop(1, chain),)
    with pytest.raises(ValueError, match="line 100 nests deeper than 100"):
        Circuit(1, chain)
    with pytest.raises(ValueError, match="positive"):
        Circuit(0)


def test_shared_loops_count_and_check_where_they_stand():
    """A Loop object used twice is written twice: it counts its lines at each
    use and its nesting depth at its deepest use, and a bad gate in it is
    named at its first use."""
    inner = Loop(2, (sigx(0), had2(0)))
    circuit = Circuit(1, (inner, inner, sigx(0)))
    assert len(circuit) == 9 == len(write_english(circuit).splitlines())
    chain = (sigx(0),)
    for _ in range(100):
        chain = (Loop(1, chain),)
    assert len(Circuit(1, chain + (sigx(0),))) == 202
    with pytest.raises(ValueError, match=r"^LOOP at line 301 nests deeper than 100$"):
        Circuit(1, chain + (Loop(1, chain),))
    bad = Loop(2, (had2(0), sigx(3)))
    with pytest.raises(ValueError, match=r"^line 3: bit 3 out of range for 2 qubit\(s\)$"):
        Circuit(2, (had2(1), bad, bad))


def per_line_picture(gates, n):
    return "".join(_picture_line(g, n) + "\n" for g in gates)


def per_line_english(gates):
    return "".join(_english_line(g) + "\n" for g in gates)


def test_pictures_are_keyed_on_all_operands():
    """Gates that share some operands and differ in one drawn field each."""
    c = (Control(3, True),)
    mux = (0.0, 10.0, 20.0, 30.0)
    body = (
        # only the angles differ
        roty(10.0, 1, c), roty(20.0, 1, c), p0ph(1.0, 1, c), p0ph(2.0, 1, c),
        rotn(1.0, 2.0, 3.0, 1, c), rotn(4.0, 5.0, 6.0, 1, c), phas(1.0, c), phas(2.0, c),
        # only the opcode differs
        rotx(10.0, 1, c), p1ph(1.0, 1, c),
        # only the control polarity differs
        roty(10.0, 1, (Control(3, False),)), phas(1.0, (Control(3, False),)),
        # only the mux-control names differ
        mp_y(1, (MuxControl(2, 1), MuxControl(0, 0)), mux, c),
        mp_y(1, (MuxControl(2, 0), MuxControl(0, 1)), mux, c),
    )
    for gates in (body, body[::-1]):
        circuit = Circuit(4, gates)
        assert write_picture(circuit) == per_line_picture(gates, 4)
        assert write_english(circuit) == per_line_english(gates)
    assert len(set(per_line_picture(body, 4).splitlines())) == 10


def test_ladder_picture_on_a_wide_register():
    ins = mp_y(11, (MuxControl(9, 2), MuxControl(4, 1), MuxControl(0, 0)),
               (5.0, -10.0, 15.0, 20.0, -25.0, 30.0, 35.0, 40.0), (Control(6, False),))
    ladder = expand_mux(ins)
    ops, english, picture = render(Circuit(12, (ins,)), written_as(expand_mux))
    assert ops == len(ladder) == 16
    assert picture == per_line_picture(ladder, 12)
    assert english == write_english(Circuit(12, tuple(ladder)))
    assert len(set(picture.splitlines()[::2])) == 1  # every rotation draws alike


def test_chunk_of_repeated_and_derived_gates_reads_like_single_lines():
    """A converted gate written as gates that repeat objects (like a ladder's
    CNOTs) and share operands (like its rotations) among other gates."""
    c = (Control(3, True), Control(0, False))
    cnot, rung = sigx(1, c), roty(0.0, 1, c)
    chunk = [rung.with_angles((a,)) for a in (1.0, -0.0, 1e300, 2.5e-300, -7.25)]
    chunk = [g for pair in zip(chunk, (cnot, swap(1, 2, c), cnot, rotx(3.0, 1, c), cnot))
             for g in pair] + [cnot, rotn(0.0, -0.0, 5.0, 1, c), cnot,
                               mp_y(1, (MuxControl(2, 0),), (-0.0, 4.0), c), phas(-0.0, c)]
    for gates in (chunk, chunk[::-1]):
        ops, english, picture = render(Circuit(4, (had2(2), had2(1), had2(2))),
                                       written_as(lambda ins: gates if ins.targets == (1,)
                                                  else [ins]))
        assert ops == len(gates) + 2
        assert english == "".join(per_line_english(g) for g in ([had2(2)], gates, [had2(2)]))
        assert picture == "".join(per_line_picture(g, 4) for g in ([had2(2)], gates, [had2(2)]))


def test_range_check_names_first_line_of_a_repeated_bad_gate():
    bad = sigx(3)
    with pytest.raises(ValueError, match=r"^line 1: bit 3 out of range for 2 qubit\(s\)$"):
        Circuit(2, (had2(0), bad, had2(1), bad))
    with pytest.raises(ValueError, match=r"^line 2: bit 5 out of range"):
        Circuit(2, (had2(0), Loop(2, (swap(5, 0), sigx(1))), bad, swap(5, 0)))
    with pytest.raises(ParseError, match="line 2: bit 3 out of range"):
        parse_english("HAD2  AT  0\nSIGX  AT  3\nHAD2  AT  0\nSIGX  AT  3\n", num_qubits=2)


def test_format_number():
    assert format_number(30.0) == "30.0"
    assert format_number(42.7) == "42.7"
    assert format_number(-0.0) == "0.0"
    assert format_number(1 / 3) == "0.3333333333333333"
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_round_trips_and_is_never_a_bare_integer(x):
    text = format_number(x)
    assert float(text) == x
    assert "." in text or "e" in text
