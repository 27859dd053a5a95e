"""Seq nodes: the span parser against the per-line parser, and every walker
on Seqs against the same circuit with its Seqs spliced into gates."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsagen import ir, sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full
from qsagen.ir import (Circuit, Control, Loop, ParseError, Seq, count_elementary_ops,
                       dagger, had2, parse_english, render_text, roty, sigx, with_control,
                       write_english)
from qsagen.markov import AnnealingSchedule, default_problem
from qsagen.mux_expander import expand_file

from helpers import (ladders, ladders_expanded, per_line_parse_english, random_circuit, spliced,
                     written_as)

# Every line separator of str.splitlines.
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]
# Whitespace that str.split drops but that separates no lines.
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]
JUNK_LINES = ["", "  ", "\t", "\x1f", "LOOPY AT 0", "NEXTX", "LOOP", "NEXT", "LOOP 0",
              "NEXT 0 1", "NEXT x", "LOOP 0 REPS: 0", "LOOP 0 REPS:1", " LOOP 0 REPS: 1",
              "\tNEXT 0", "LOOP\x1f0\x1fREPS: 2", "\xa0NEXT 0", "SIGX  AT  0", "SIGX  AT  9",
              "HAD2  AT  0  IF", "SIGQ AT 1"]


def outcome(parse, text, num_qubits):
    """The parsed circuit with its Seqs spliced, or the ParseError's message,
    line and token."""
    try:
        return spliced(parse(text, num_qubits))
    except ParseError as err:
        return "ParseError", str(err), err.line, err.token


def relabel(lines: list) -> list:
    """The lines with each LOOP label set to its line index and each NEXT
    label to that of the LOOP it closes, where there is one."""
    out, open_labels = [], []
    for index, line in enumerate(lines):
        tokens = line.split()
        if tokens[:1] == ["LOOP"] and len(tokens) >= 3:
            tokens[1] = str(index)
            open_labels.append(index)
            line = " ".join(tokens)
        elif tokens[:1] == ["NEXT"] and len(tokens) == 2 and open_labels:
            line = f"NEXT {open_labels.pop()}"
        out.append(line)
    return out


@st.composite
def english_texts(draw):
    """The english text of a random circuit, mutated, and a qubit count."""
    circuit = random_circuit(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    lines = write_english(circuit).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["insert", "drop", "indent", "widen", "reps", "label"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "insert":
            lines.insert(at, draw(st.sampled_from(JUNK_LINES)))
        elif at == len(lines):
            continue
        elif kind == "drop":
            del lines[at]
        elif kind == "indent":
            lines[at] = draw(st.sampled_from(SPACES)) + lines[at] + draw(st.sampled_from(SPACES))
        elif kind == "widen":
            lines[at] = lines[at].replace(" ", draw(st.sampled_from(SPACES)) * 2)
        elif kind == "reps" and lines[at].startswith("LOOP"):
            lines[at] = lines[at].split("REPS:")[0] + "REPS: " + draw(
                st.sampled_from(["0", "-1", "x", "2 3", ""]))
        elif kind == "label":
            tokens = lines[at].split()
            if tokens[:1] in (["LOOP"], ["NEXT"]) and tokens[1:2] and tokens[1].isdigit():
                tokens[1] = str(int(tokens[1]) + draw(st.sampled_from([-1, 1])))
                lines[at] = " ".join(tokens)
    if draw(st.booleans()):
        lines = relabel(lines)
    separator = st.sampled_from(SEPARATORS) if draw(st.booleans()) else st.just("\n")
    text = "".join(line + draw(separator) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no final separator, or half of a CRLF
    n = circuit.num_qubits
    return text, draw(st.sampled_from([None, n, n - 1, max(n - 2, 0)]))


@settings(max_examples=300, deadline=None)
@given(english_texts())
def test_span_parser_equals_per_line_parser(case):
    text, num_qubits = case
    assert outcome(parse_english, text, num_qubits) == outcome(
        per_line_parse_english, text, num_qubits)


@pytest.mark.parametrize("text", [
    "", "\n", "\r", "\r\n\r\n", "HAD2  AT  0", "HAD2  AT  0\r\nHAD2  AT  0\r",
    "LOOP 0 REPS: 2\u2028HAD2  AT  0\u2029NEXT 0", "LOOP 0 REPS: 0\n",
    "HAD2  AT  0\n\nLOOP 2 REPS: 1\nNEXT 2\n", "LOOP 0 REPS: 1\nNEXT 0\n\n",
    "NEXT 0\n", "LOOP 0 REPS: 1\n", "LOOPY AT 0\n", "  LOOP 0 REPS: 1\n\tNEXT 0",
    "LOOP 0 REPS: 1\nLOOP 1 REPS: 1\nNEXT 1\nNEXT 0\nHAD2  AT  3\n",
    "LOOP 0 REPS: 2\nHAD2  AT  0\nNEXT 0", "HAD2  AT  0\r\nLOOP 1 REPS: 2\r\nNEXT 1\r\n",
    "SIGQ  AT  0\nHAD2  AT  0\n", "HAD2  AT  0\nSIGQ  AT  0", "HAD2  AT  0\nSIGQ  AT  0\n",
    "LOOP 0 REPS: x\nNEXT 0\n", "HAD2  AT  0\nLOOP 1 REPS: 1\nNEXT 2",
])
def test_span_parser_equals_per_line_parser_on_edge_cases(text):
    for num_qubits in (None, 1, 3):
        assert outcome(parse_english, text, num_qubits) == outcome(
            per_line_parse_english, text, num_qubits)


# The regex that found the LOOP/NEXT lines before the literal token search.
OLD_MARKER_RE = re.compile(r"\n[^\S\n]*(?:LOOP|NEXT)(?!\S)")
MARKER_PIECES = ["LOOP", "NEXT", "LOOPX", "XNEXT", "LOOP0", "NEXTLOOP", "HAD2", "0", "REPS:",
                 " ", "  ", "\t", "\x1f", "\xa0", "\u3000", "\n", "\n", "\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(MARKER_PIECES), max_size=30), st.booleans())
def test_marker_search_equals_the_old_regex(pieces, final_newline):
    """Leading spaces and tabs, tokens that only start with LOOP or NEXT,
    trailing blanks, and a last line with or without its newline."""
    text = "".join(pieces) + ("\n" if final_newline else "")
    lines_end = len(text) - text.endswith("\n")
    assert ir._marker_breaks(text, lines_end) == [
        m.start() - 1 for m in OLD_MARKER_RE.finditer("\n" + text, 0, lines_end + 1)]


def test_seq_holds_only_nodes():
    assert Seq([had2(0)]).body == (had2(0),)
    assert Seq((had2(0), Loop(1), Seq())).body == (had2(0), Loop(1), Seq())
    for node in ("HAD2  AT  0", None, (had2(0),)):
        with pytest.raises(TypeError):
            Seq((had2(0), node))


def grouped_body(rng: np.random.Generator, body: tuple, shared: list) -> list:
    """The body with random stretches of gates made Seqs, inside Loops too,
    some Seqs used again, here or in another Loop, some empty, and some
    stretches of the result, Loops and Seqs included, nested in a Seq."""
    out: list = []
    i = 0
    while i < len(body):
        node = body[i]
        if type(node) is Loop:
            out.append(Loop(node.reps, grouped_body(rng, node.body, shared)))
            i += 1
        elif rng.random() < 0.3:
            out.append(node)
            i += 1
        else:
            stop = i + int(rng.integers(1, 5))
            while any(type(n) is Loop for n in body[i:stop]):
                stop -= 1
            out.append(Seq(body[i:stop]))
            shared.append(out[-1])
            i = stop
        if shared and rng.random() < 0.2:
            out.append(shared[int(rng.integers(len(shared)))])
        if rng.random() < 0.05:
            out.append(Seq())
    for _ in range(int(rng.integers(0, 3))):
        i, j = sorted(map(int, rng.integers(0, len(out) + 1, size=2)))
        out[i:j] = [Seq(out[i:j])]
        shared.append(out[i])
    return out


def grouped_circuit(seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, max_items=10)
    return Circuit(circuit.num_qubits, grouped_body(rng, circuit.body, []))


@pytest.mark.parametrize("seed", range(40))
def test_walkers_on_seqs_equal_the_spliced_circuit(seed):
    circuit = grouped_circuit(seed)
    flat = spliced(circuit)
    n = circuit.num_qubits
    assert render_text(circuit) == render_text(flat)
    assert render_text(circuit, written_as(ladders)) == render_text(flat, written_as(ladders))
    assert len(circuit) == len(flat)
    assert count_elementary_ops(circuit) == count_elementary_ops(flat)
    assert spliced(dagger(circuit.body)) == dagger(flat.body)
    control = Control(n, seed % 2 == 0)
    assert spliced(with_control(circuit.body, control)) == with_control(flat.body, control)
    assert render_text(circuit, written_as(ladders)) == render_text(ladders_expanded(flat))
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    np.testing.assert_allclose(sim.apply(circuit, state), sim.apply(flat, state),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sim.to_matrix(circuit), sim.to_matrix(flat), rtol=0, atol=1e-12)


def test_with_control_collision_inside_a_seq():
    with pytest.raises(ValueError, match="collides"):
        with_control((Loop(2, (Seq((had2(0), sigx(1))),)),), Control(1))


def seqs_of(body, found: dict) -> dict:
    for node in body:
        if type(node) is Seq:
            found[id(node)] = node
        elif type(node) is Loop:
            seqs_of(node.body, found)
    return found


def test_parser_shares_one_seq_per_distinct_span():
    """The expanded file of the `deep` flow: 15 distinct spans of gate lines
    between LOOP/NEXT lines, one Seq each, and one simulator segment each."""
    config = GeneratorConfig(default_problem(2), PEParams(2, 1, 4), AnnealingSchedule(0.5, 2))
    _, english, picture = render_text(emit_full(config, prep=True))
    text = expand_file(english, picture)[1]
    assert len(text.splitlines()) == 70242
    spans, span = set(), []
    for line in text.splitlines() + ["NEXT"]:
        if line.split()[0] in ("LOOP", "NEXT"):
            if span:
                spans.add("\n".join(span))
            span = []
        else:
            span.append(line)
    circuit = parse_english(text)
    seqs = seqs_of(circuit.body, {})
    assert len(spans) == len(seqs) == 15
    assert {write_english(Circuit(circuit.num_qubits, (seq,)))[:-1]
            for seq in seqs.values()} == spans
    _, _, segments = sim._plan(circuit.body)
    assert len(segments) == 15
    assert write_english(circuit) == text


def range_error(num_qubits: int, body) -> str:
    with pytest.raises(ValueError) as info:
        Circuit(num_qubits, body)
    return str(info.value)


def test_gate_only_seqs_name_the_first_bad_line():
    """A Seq of gates only is checked through the ids of its gates not seen
    before; a bad bit in it is named at the line the per-gate walk of the
    spliced body names."""
    g, h, bad = had2(0), roty(5.0, 1), sigx(3, (Control(0),))
    shared = Seq((g, h))
    config = GeneratorConfig(default_problem(1), PEParams(1, 1, 2), AnnealingSchedule(0.5, 2))
    emitted = emit_full(config).body  # 3 qubits, gate-only Seqs nested in Seqs
    cases = [
        # a parsed span, after a loop
        (3, parse_english("HAD2  AT  0\nHAD2  AT  1\nLOOP 2 REPS: 2\nHAD2  AT  0\n"
                          "SIGX  AT  3  IF  0T\nNEXT 2\nSIGX  AT  3  IF  0T\n").body, 4),
        # a parsed span placed after a loop and reused, one of its gates seen before
        (3, parse_english("HAD2  AT  0\nLOOP 1 REPS: 2\nHAD2  AT  1\nNEXT 1\n"
                          "HAD2  AT  0\nSIGX  AT  3\nLOOP 6 REPS: 2\nHAD2  AT  0\n"
                          "SIGX  AT  3\nNEXT 6\n").body, 5),
        (3, (shared, Loop(2, (shared, g)), shared, Seq((h, g, bad, bad))), 11),
        (3, (Loop(2, (Seq((g, bad)),)), g, Seq((g, bad))), 2),
        # a gate-only Seq nested in an emitted tree
        (3, (Seq((emitted[0], Seq((h, bad)))), emitted[1]), len(Circuit(3, emitted[:1])) + 1),
        (2, emitted, None),
    ]
    for num_qubits, body, line in cases:
        message = range_error(num_qubits, body)
        assert message == range_error(num_qubits, spliced(body))
        if line is not None:
            assert message == f"line {line}: bit 3 out of range for {num_qubits} qubit(s)"
