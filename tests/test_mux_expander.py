"""Exactness of the multiplexor expansion and the file-level rewrite."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsagen import sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full
from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Opcode,
                       _english_line, _picture_line, count_elementary_ops, had2, mp_y,
                       parse_english, roty, sigx, write_english, write_picture)
from qsagen.markov import AnnealingSchedule, default_problem
from qsagen.mux_expander import _line_count, expand_file, expand_mux, gray_code

from helpers import (OVERFLOWING_LADDERS, flat_lines, manual_unroll, random_circuit,
                     random_gate, reference_expand_file, spliced)


def random_mux(rng, k, plain=0):
    bits = rng.permutation(k + 1 + plain)
    mux = [MuxControl(int(b), name) for name, b in enumerate(sorted(bits[1:1 + k]))]
    controls = [Control(int(b), bool(rng.integers(2))) for b in bits[1 + k:]]
    angles = rng.uniform(-180.0, 180.0, size=1 << k)
    return mp_y(int(bits[0]), mux, angles, controls)


def test_gray_code_steps_differ_by_one_bit():
    for k in (1, 2, 3, 4):
        words = 1 << k
        for r in range(words):
            diff = gray_code(r) ^ gray_code((r + 1) % words)
            assert diff.bit_count() == 1


def test_k1_expansion_shape_and_angles():
    ins = mp_y(1, (MuxControl(0, 0),), (30.0, 10.0))
    out = expand_mux(ins)
    assert [i.opcode for i in out] == [Opcode.ROTY, Opcode.SIGX] * 2
    # ROTY kernels carry half angles, so the ladder doubles the solved values
    assert out[0].angles_deg == (40.0,)   # theta0 + theta1
    assert out[2].angles_deg == (20.0,)   # theta0 - theta1
    assert out[1].controls == (Control(0, True),)
    got = sim.to_matrix(Circuit(2, tuple(out)))
    want = sim.to_matrix(Circuit(2, (ins,)))
    assert np.abs(got - want).max() < 1e-12


def test_equal_angles_collapse_to_single_rotation():
    ins = mp_y(2, (MuxControl(1, 1), MuxControl(0, 0)), (25.0,) * 4)
    rotations = [i for i in expand_mux(ins) if i.opcode is Opcode.ROTY]
    assert rotations[0].angles_deg == (50.0,)
    assert all(r.angles_deg == (0.0,) for r in rotations[1:])


def test_ladder_angles_sum_left_to_right():
    """The same bytes on every Python: from 3.12 on, builtin sum of floats is
    compensated and would make this first angle 1.0."""
    ins = mp_y(2, (MuxControl(1, 1), MuxControl(0, 0)), (1.0, 1e100, 1.0, -1e100))
    assert expand_mux(ins)[0].angles_deg == (0.0,)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_expansion_equals_multiplexor(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(10):
        ins = random_mux(rng, k)
        n = k + 1
        got = sim.to_matrix(Circuit(n, tuple(expand_mux(ins))))
        want = sim.to_matrix(Circuit(n, (ins,)))
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("k", (1, 2, 3))
def test_expansion_with_plain_controls(k):
    rng = np.random.default_rng(50 + k)
    for _ in range(5):
        ins = random_mux(rng, k, plain=1)
        n = k + 2
        out = expand_mux(ins)
        assert all(set(ins.controls) <= set(i.controls) for i in out)
        got = sim.to_matrix(Circuit(n, tuple(out)))
        want = sim.to_matrix(Circuit(n, (ins,)))
        assert np.abs(got - want).max() < 1e-10


def test_expand_mux_rejects_other_opcodes():
    from qsagen.ir import had2
    with pytest.raises(ValueError, match="MP_Y"):
        expand_mux(had2(0))


@pytest.mark.parametrize("angles", OVERFLOWING_LADDERS.values(), ids=OVERFLOWING_LADDERS.keys())
def test_expand_mux_rejects_ladder_angles_that_overflow(angles):
    with pytest.raises(ValueError, match="^ROTY angles must be finite$"):
        expand_mux(mp_y(0, (MuxControl(1, 0),), angles))


@pytest.mark.parametrize("angles", OVERFLOWING_LADDERS.values(), ids=OVERFLOWING_LADDERS.keys())
def test_expand_file_rejects_ladder_angles_that_overflow(angles):
    circuit = Circuit(2, (mp_y(0, (MuxControl(1, 0),), angles),))
    with pytest.raises(ValueError, match="^ROTY angles must be finite$"):
        expand_file(write_english(circuit), write_picture(circuit))


def test_expansion_instruction_count():
    rng = np.random.default_rng(60)
    for k in (1, 2, 3, 4):
        assert len(expand_mux(random_mux(rng, k))) == 1 << (k + 1)


def test_expand_file_without_muxes_is_identity_modulo_labels():
    text = ("LOOP 0 REPS: 2\n"
            "SIGX  AT  1  IF  0T\n"
            "NEXT 0\n"
            "HAD2  AT  0\n")
    circuit = parse_english(text)
    log, eng, pic = expand_file(text, write_picture(circuit))
    assert eng == text
    assert pic == write_picture(circuit)
    assert "Number of Elementary Operations: 3" in log


def test_expand_file_table_row():
    eng = "MP_Y  AT  3 IF 2(1 1(0 0T BY 30.0 10.5 11.0 83.1\n"
    pic = write_picture(parse_english(eng))
    log, eng_out, pic_out = expand_file(eng, pic)
    assert len(eng_out.splitlines()) == 8
    assert len(pic_out.splitlines()) == 8
    assert log == ("Compilation Mode: Exact SEO\n"
                   "Number of Elementary Operations: 8\n")
    before = sim.to_matrix(parse_english(eng, num_qubits=4))
    after = sim.to_matrix(parse_english(eng_out, num_qubits=4))
    assert np.abs(before - after).max() < 1e-10


def test_expand_file_recomputes_loop_labels():
    text = ("SIGX  AT  0\n"
            "LOOP 1 REPS: 3\n"
            "MP_Y  AT  1 IF 0(0 BY 20.0 -40.0\n"
            "NEXT 1\n")
    _, eng, _ = expand_file(text, "x\nx\nx\nx\n")
    lines = eng.splitlines()
    assert lines[1] == "LOOP 1 REPS: 3"
    assert lines[6] == "NEXT 1"
    assert len(lines) == 7


def test_expand_file_line_count_mismatch():
    with pytest.raises(ValueError, match="picture file has 1 line"):
        expand_file("SIGX  AT  0\nHAD2  AT  0\n", "X\n")


def test_expand_file_parse_error_carries_line():
    from qsagen.ir import ParseError
    with pytest.raises(ParseError, match="line 1"):
        expand_file("SIGQ AT 1\n", "X\n")


def test_op_count_identity_on_random_circuits():
    """after = before + sum over mux lines of weight * (2^(k+1) - 1)."""
    rng = np.random.default_rng(61)
    for _ in range(20):
        circuit = random_circuit(rng)
        log, _, _ = expand_file(write_english(circuit), write_picture(circuit))
        gained = sum((1 << (len(ins.mux_controls) + 1)) - 1
                     for ins in manual_unroll(circuit.body)
                     if ins.opcode is Opcode.MP_Y)
        assert (int(log.split("Number of Elementary Operations: ")[1])
                == count_elementary_ops(circuit) + gained)


def test_whole_circuit_equivalence_after_expansion():
    config = GeneratorConfig(
        problem=default_problem(1),
        pe=PEParams(1, 1, 1),
        schedule=AnnealingSchedule(0.5, 1),
    )
    circuit = emit_full(config)
    _, english, _ = expand_file(write_english(circuit), write_picture(circuit))
    expanded = parse_english(english, num_qubits=circuit.num_qubits)
    assert all(ins.opcode is not Opcode.MP_Y for ins in spliced(expanded.body))
    diff = np.abs(sim.to_matrix(expanded) - sim.to_matrix(circuit)).max()
    assert diff < 1e-9


def scalar_ladder_angles(ins):
    """The ladder's ROTY angles by the scalar loop: each sum left to right from
    0.0, with the sign of each term read off popcount(m & g(r))."""
    words = len(ins.angles_deg)
    angles = []
    for r in range(words):
        g = r ^ (r >> 1)
        acc = 0.0
        for m, theta in enumerate(ins.angles_deg):
            acc += theta if (m & g).bit_count() % 2 == 0 else -theta
        angles.append(2.0 * acc / words)
    return angles


def mux_with_angles(k, angles):
    return mp_y(k, [MuxControl(b, b) for b in range(k)], angles, (Control(k + 1, False),))


def ladder_angle_inputs(k):
    rng = np.random.default_rng(70 + k)
    words = 1 << k
    signs = rng.choice((-1.0, 1.0), size=(3, words))
    yield signs[0] * 10.0 ** rng.uniform(-300.0, 300.0, size=words)
    yield [0.0] * words
    yield [-0.0] * words
    yield rng.choice((0.0, -0.0), size=words)
    # terms that cancel: the result depends on the order of the additions
    yield rng.choice((1.0, -1.0, 1e100, -1e100, 1e-100, 3.0), size=words)
    yield signs[1] * np.tile((1.0, 1e100, 1.0, -1e100), words)[:words]
    yield signs[2] * rng.uniform(-180.0, 180.0, size=words)


@pytest.mark.parametrize("k", range(1, 9))
def test_ladder_angles_equal_the_scalar_loop_bit_for_bit(k):
    for angles in ladder_angle_inputs(k):
        ins = mux_with_angles(k, angles)
        got = [g.angles_deg[0] for g in expand_mux(ins)[::2]]
        want = scalar_ladder_angles(ins)
        assert [repr(a) for a in got] == [repr(a) for a in want]
        assert ([math.copysign(1.0, a) for a in got]
                == [math.copysign(1.0, a) for a in want])


@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_ladder_builds_one_cnot_per_control(k):
    ins = random_mux(np.random.default_rng(80 + k), k, plain=1)
    cnots = expand_mux(ins)[1::2]
    assert len(cnots) == 1 << k
    assert all(g.opcode is Opcode.SIGX for g in cnots)
    assert len({id(g) for g in cnots}) == k
    assert {g.controls for g in cnots} == {
        tuple(sorted((Control(m.bit),) + ins.controls, key=lambda c: -c.bit))
        for m in ins.mux_controls}


def test_expand_file_equals_per_line_expansion():
    rng = np.random.default_rng(62)
    for _ in range(20):
        circuit = random_circuit(rng)
        body = list(circuit.body) + [random_gate(rng, circuit.num_qubits) for _ in range(5)]
        circuit = Circuit(circuit.num_qubits, tuple(body))
        want = [g for ins in flat_lines(circuit.body) for g in (
            expand_mux(ins) if isinstance(ins, Instruction) and ins.opcode is Opcode.MP_Y
            else (ins,))]
        _, english, _ = expand_file(write_english(circuit), write_picture(circuit))
        got = flat_lines(parse_english(english, num_qubits=circuit.num_qubits).body)
        assert got == want

        def angles(lines):
            return repr([g.angles_deg if isinstance(g, Instruction) else g for g in lines])
        assert angles(got) == angles(want)


def full_constructor_ladder(ins):
    """The ladder of `ins` with every gate built by the full constructors: the
    rotations take the scalar loop's angles, and the CNOT after rotation r
    sits on the control named where Gray-code words r and r + 1 differ."""
    words, target, plain = len(ins.angles_deg), ins.targets[0], ins.controls
    bit_of = {m.name: m.bit for m in ins.mux_controls}
    out = []
    for r, angle in enumerate(scalar_ladder_angles(ins)):
        s = (r + 1) % words
        name = ((r ^ (r >> 1)) ^ (s ^ (s >> 1))).bit_length() - 1
        out += [roty(angle, target, plain), sigx(target, [Control(bit_of[name])] + list(plain))]
    return out


@pytest.mark.parametrize("plain", (0, 2), ids=("no-plain", "plain"))
@pytest.mark.parametrize("k", range(1, 9))
def test_ladder_gates_equal_the_full_constructor(k, plain):
    """Derived rotations and shared CNOTs are indistinguishable from gates the
    full constructors build: equality, hash, every field (the sign of a zero
    angle included), and both written lines."""
    rng = np.random.default_rng(90 + k)
    n = k + 1 + plain
    for angles in ladder_angle_inputs(k):
        shape = random_mux(rng, k, plain)
        ins = mp_y(shape.targets[0], shape.mux_controls, angles, shape.controls)
        got, want = expand_mux(ins), full_constructor_ladder(ins)
        assert len(got) == len(want) == 2 << k
        for g, w in zip(got, want):
            assert g == w and hash(g) == hash(w)
            assert g.operand_bits == w.operand_bits
            assert repr(vars(g)) == repr(vars(w))
            assert _english_line(g) == _english_line(w)
            assert _picture_line(g, n) == _picture_line(w, n)


def test_ladder_rotations_share_the_operands_of_one_validated_rotation():
    ins = random_mux(np.random.default_rng(99), 4, plain=2)
    rotations = expand_mux(ins)[::2]
    assert len({id(g) for g in rotations}) == 16
    for field in ("targets", "controls", "mux_controls", "operand_bits"):
        assert len({id(getattr(g, field)) for g in rotations}) == 1


# Every line terminator of str.splitlines.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_picture_line_count_keeps_splitlines(brk):
    for text in ("", brk, brk * 3, "a" + brk, "a" + brk + "b", brk + "a", "a" + brk + brk + " ",
                 "a\r" + brk, brk + "\n", "\r" + brk + "\n", "x\u3000" + brk + "y"):
        assert _line_count(text) == len(text.splitlines()), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LINE_BREAKS + ["a", " ", "\t", "\x1f", "\xa0"]), max_size=20))
def test_picture_line_count_on_mixed_breaks(pieces):
    text = "".join(pieces)
    assert _line_count(text) == len(text.splitlines())


SPECIAL_ANGLES = (0.0, -0.0, 1e-300, 720.0, -720.0)


def placed_mux(rng, k, plain, angles):
    """An MP_Y with k named controls, in random order of bits, and `plain`
    plain controls of both polarities, on bits of a register of up to 16."""
    n = int(rng.integers(k + 1 + plain, 17))
    bits = [int(b) for b in rng.permutation(n)[:k + 1 + plain]]
    on = bool(rng.integers(2))
    return n, mp_y(bits[0], [MuxControl(b, name) for name, b in enumerate(bits[1:1 + k])],
                   angles, [Control(b, polarity) for b, polarity in zip(bits[1 + k:], (on, not on))])


@pytest.mark.parametrize("k", range(1, 11))
def test_expand_file_equals_the_gate_by_gate_reference(k):
    """The ladder text writer against `render` writing each ladder gate by
    gate: an MP_Y placed inside and outside a Loop, and a twin with the same
    operands and other angles, whose ladder texts share their frames.  The
    HAD2 on the top bit keeps the register that the parser infers."""
    rng = np.random.default_rng(130 + k)
    for plain in (0, 1, 2):
        mixed = rng.uniform(-180.0, 180.0, size=1 << k)
        special = rng.random(1 << k) < 0.5
        mixed[special] = rng.choice(SPECIAL_ANGLES, size=int(special.sum()))
        for angles in (mixed, rng.choice(SPECIAL_ANGLES, size=1 << k)):
            n, mux = placed_mux(rng, k, plain, angles)
            twin = mp_y(mux.targets[0], mux.mux_controls, angles[::-1], mux.controls)
            circuit = Circuit(n, (mux, Loop(3, (had2(n - 1), mux, twin)), twin, mux))
            assert (expand_file(write_english(circuit), write_picture(circuit))
                    == reference_expand_file(circuit))


# sha256 of expand_file's log, english and picture, joined by NULs, for one
# seeded MP_Y with k named controls and a plain one: ladders past the 7
# controls of the g4 flow.
WIDE_LADDER_SHA256 = {
    8: "9aa55624b52062c175ba481c20d572a4fb3893d90210c61e99a6c58edcbbe53c",
    9: "bf0755840ceffba68a5b4f00ca2e4d71dc9b8cb772bab9ba5e01b5c74d387120",
    10: "752438bfa7bca9317f69cc679dda7165d3074ad2f07c6d5dff54d32acbd1b8ec",
    11: "c194e2f332d4e84aa513ae807a4eda14db6847e6837ddc5c0900a3039e251190",
}


@pytest.mark.parametrize("k", sorted(WIDE_LADDER_SHA256))
def test_wide_ladder_files_are_byte_golden(k):
    circuit = Circuit(k + 2, (random_mux(np.random.default_rng(110 + k), k, plain=1),))
    out = expand_file(write_english(circuit), write_picture(circuit))
    assert hashlib.sha256("\0".join(out).encode()).hexdigest() == WIDE_LADDER_SHA256[k]
