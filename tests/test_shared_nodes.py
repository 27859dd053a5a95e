"""Shared emitter nodes: the emitted tree against the same circuit with its
Seqs spliced into one flat body, and the sharing that keeps it small."""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsagen import sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full, emit_U_grover
from qsagen.ir import (Circuit, Control, Instruction, Loop, MuxControl, Seq, count_elementary_ops,
                       dagger, had2, mp_y, render_text, rotn, roty, sigx, swap, with_control)
from qsagen.markov import AnnealingSchedule, default_problem

from helpers import gate_by_gate, manual_unroll, r_tilde, random_gate, spliced


def make_config(nb, a, c, d, t_f=2, conjugate_q=False):
    return GeneratorConfig(default_problem(nb), PEParams(a, c, d),
                           AnnealingSchedule(0.5, t_f), conjugate_q=conjugate_q)


@st.composite
def emitted_circuits(draw):
    nb, a, c = (draw(st.integers(1, 2)) for _ in range(3))
    d = draw(st.integers(0, 4))
    t_f = draw(st.integers(1, 2))
    config = make_config(nb, a, c, d, t_f, draw(st.booleans()))
    kind = draw(st.sampled_from(["full", "grover", "r"]))
    if kind == "full":
        return emit_full(config, prep=draw(st.booleans()))
    t = draw(st.integers(0, t_f - 1))
    if kind == "grover":
        return emit_U_grover(t, d, config)
    return r_tilde(config.schedule.beta(t), config)


def nodes_of(body, found: dict) -> dict:
    """Every distinct Seq, Loop and gate object under a body, by id."""
    for node in body:
        if id(node) not in found:
            found[id(node)] = node
            if type(node) is not Instruction:
                nodes_of(node.body, found)
    return found


@settings(max_examples=40, deadline=None)
@given(emitted_circuits())
def test_shared_tree_equals_the_spliced_tree(circuit):
    flat = spliced(circuit)
    assert not any(type(node) is Seq for node in nodes_of(flat.body, {}).values())
    assert render_text(circuit) == render_text(flat)
    assert len(circuit) == len(flat)
    assert count_elementary_ops(circuit) == len(manual_unroll(circuit.body))
    n = circuit.num_qubits
    if n <= 6:
        np.testing.assert_allclose(sim.to_matrix(circuit), sim.to_matrix(flat),
                                   rtol=0, atol=1e-12)
    else:  # 8 qubits: a state, not 256 columns
        state = np.random.default_rng(n).normal(size=1 << n) + 0j
        np.testing.assert_allclose(sim.apply(circuit, state), sim.apply(flat, state),
                                   rtol=0, atol=1e-12)


def test_distinct_nodes_do_not_grow_with_depth():
    """(2,2,1,7) with prep writes 380,366 lines from about 200 objects: from
    d = 2 on, when G(t, 1)^dagger brings in the inverse reflections, each
    level of the recursion adds only G(t, d) and G(t, d)^dagger for each t."""
    counts = {}
    for d in (2, 3, 7):
        circuit = emit_full(make_config(2, 2, 1, d), prep=True)
        counts[d] = len(nodes_of(circuit.body, {}))
    assert counts[3] - counts[2] == 2 * 2
    assert counts[7] - counts[2] == 5 * 2 * 2
    assert counts[7] < 250
    assert len(circuit) == 380366


def segment_gates(body) -> Counter:
    """The simulator's segments of a body: the gates of each, by identity,
    and how often it executes."""
    _, _, segments = sim._plan(body)
    return Counter((tuple(id(g) for step in segment.steps for g in (
        step.gates if type(step) in (sim._Run, sim._Swaps) else (step,))), segment.executions)
        for segment in segments.values())


def node_rule_segments(body) -> Counter:
    """The segments of planning each distinct node once, found by walking
    every placement: in each body, each maximal run of gates between Seqs and
    Loops, and each Seq of gates only, told apart by the identities of the
    run's gates or of the Seq, with its executions weighted by its loops' reps."""
    found: dict = {}  # key -> [the ids of its gates, executions]

    def count(key, gates, weight):
        found.setdefault(key, [tuple(map(id, gates)), 0])[1] += weight

    def visit(body, weight):
        gates = []
        for node in (*body, None):
            if type(node) is Instruction:
                gates.append(node)
                continue
            if gates:
                count(tuple(map(id, gates)), gates, weight)
                gates = []
            if type(node) is Loop:
                visit(node.body, weight * node.reps)
            elif type(node) is Seq and all(type(child) is Instruction for child in node.body):
                if node.body:
                    count(id(node), node.body, weight)
            elif type(node) is Seq:
                visit(node.body, weight)

    visit(body, 1)
    return Counter((gates, executions) for gates, executions in found.values())


def test_emitted_segments_follow_the_node_rule():
    """The simulator plans each distinct node of an emitted tree once, and
    cuts it into the segments that the rule gives placement by placement,
    executed as often; the tree's state equals the spliced tree's."""
    for circuit in (emit_full(make_config(2, 2, 1, 2), prep=True),
                    emit_full(make_config(1, 1, 2, 3, conjugate_q=True)),
                    r_tilde(0.5, make_config(2, 3, 2, 1))):
        assert segment_gates(circuit.body) == node_rule_segments(circuit.body)
        n = circuit.num_qubits
        state = np.random.default_rng(n).normal(size=1 << n) + 0j
        np.testing.assert_allclose(sim.apply(circuit, state), sim.apply(spliced(circuit), state),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("nb,a,c", [(nb, a, c) for nb in (1, 2) for a in (1, 2, 3) for c in (1, 2)])
def test_emitted_trees_match_the_spliced_trees_and_every_gate(nb, a, c):
    """At depths 0 to 4, the tree's plan against the spliced body's, and up
    to 8 qubits against the kernel on every unrolled gate."""
    for d in range(5):
        circuit = emit_full(make_config(nb, a, c, d), prep=True)
        n = circuit.num_qubits
        state = np.random.default_rng(d).normal(size=1 << n) + 0j
        got = sim.apply(circuit, state)
        np.testing.assert_allclose(got, sim.apply(spliced(circuit), state), rtol=0, atol=1e-12)
        if n <= 8:
            np.testing.assert_allclose(got, gate_by_gate(circuit, state)[:, 0],
                                       rtol=0, atol=1e-12)


def test_depth_seven_tree_matches_the_spliced_tree():
    """(2,2,1,7) with prep: 380,366 lines, about 1.5M executed ops."""
    circuit = emit_full(make_config(2, 2, 1, 7), prep=True)
    state = sim.basis_state(circuit.num_qubits)
    np.testing.assert_allclose(sim.apply(circuit, state), sim.apply(spliced(circuit), state),
                               rtol=0, atol=1e-12)


def test_distinct_segments_do_not_grow_with_depth():
    """From d = 3 on, a level adds only G(t, d) and its inverse, Seqs of
    nodes with no gates of their own, so no segment."""
    counts = [len(sim._plan(emit_full(make_config(2, 2, 1, d), prep=True).body)[2])
              for d in range(3, 8)]
    assert counts == counts[:1] * 5


def test_transforms_share_what_their_input_shares():
    inner = Seq((had2(0), roty(10.0, 1), had2(0)))
    loop = Loop(2, (inner, sigx(2)))
    body = (inner, loop, Seq((inner, loop)))
    for out in (dagger(body), with_control(body, Control(3, False))):
        found = nodes_of(out, {})
        assert sum(type(node) is Seq for node in found.values()) == 2
        assert sum(type(node) is Loop for node in found.values()) == 1
        assert sum(type(node) is Instruction for node in found.values()) == 4
    dag = dagger(body)
    assert dag[0].body == (dag[1], dag[2]) and dag[0].body[0] is dag[1]
    assert dag[1].body[1] is dag[2]
    assert spliced(dag) == dagger(spliced(body))
    controlled = with_control(body, Control(3, False))
    assert controlled[2].body == (controlled[0], controlled[1])
    assert spliced(controlled) == with_control(spliced(body), Control(3, False))


@pytest.mark.parametrize("seed", range(20))
def test_with_controls_equals_a_rebuilt_instruction(seed):
    rng = np.random.default_rng(seed)
    ins = random_gate(rng, 5)
    for bit in range(7):
        control = Control(bit, bool(rng.integers(2)))
        if bit in ins.operand_bits:
            with pytest.raises(ValueError, match=f"control bit {bit} collides with "
                               f"{ins.opcode.value} operands"):
                ins.with_controls(control)
            continue
        derived = ins.with_controls(control)
        want = replace(ins, controls=ins.controls + (control,))
        assert derived == want
        assert derived.operand_bits == want.operand_bits
        assert derived.angles_deg is ins.angles_deg and derived.targets is ins.targets
        assert render_text(Circuit(7, (derived,))) == render_text(Circuit(7, (want,)))


def test_with_controls_keeps_mux_and_swap_operands():
    mux = mp_y(2, (MuxControl(4, 1), MuxControl(0, 0)), (1.0, 2.0, 3.0, 4.0), (Control(3),))
    assert mux.with_controls(Control(1, False)) == mp_y(
        2, (MuxControl(4, 1), MuxControl(0, 0)), (1.0, 2.0, 3.0, 4.0),
        (Control(3), Control(1, False)))
    assert swap(0, 4).with_controls(Control(2)).operand_bits == (4, 0, 2)
    assert rotn(1.0, 2.0, 3.0, 0, (Control(5),)).with_controls(
        Control(6)).operand_bits == (0, 6, 5)


def test_nested_seqs_name_the_offending_line():
    gate = sigx(3)
    inner = Seq((had2(0), Loop(2, (had2(1),))))
    body = (inner, Seq((inner, had2(2), Seq((inner, gate)))))
    with pytest.raises(ValueError, match="line 13: bit 3 out of range"):
        Circuit(3, body)
    with pytest.raises(ValueError, match="line 13: bit 3 out of range"):
        Circuit(3, spliced(body))
    assert len(Circuit(4, body)) == len(Circuit(4, spliced(body))) == 14
