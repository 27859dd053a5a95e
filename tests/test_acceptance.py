"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported end-to-end fidelities.
"""
import math
from contextlib import contextmanager

import numpy as np

from qsagen import sim
from qsagen.annealer import GeneratorConfig, PEParams, emit_full, emit_U_grover
from qsagen.ir import (Circuit, Control, Loop, MuxControl, count_elementary_ops,
                       had2, mp_y, p0ph, p1ph, parse_english, phas, rotn,
                       rotx, roty, rotz, sigx, sigy, sigz, swap, write_english,
                       write_picture)
from qsagen.markov import (AnnealingSchedule, boltzmann, default_problem,
                           metropolis, spectral)
from qsagen.mux_expander import expand_file, expand_mux
from qsagen.qembed import qembed_circuit
from qsagen.szegedy import WalkLayout, emit_W, walk_state

from helpers import (eig_unitary, manual_unroll, phases_match, r_tilde, random_circuit,
                     random_stochastic, spliced)

NB_GRID = (1, 2, 3)
BETA_GRID = (0.0, 0.5, 1.0, 2.0)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_01_metropolis_suite():
    with criterion(1, "metropolis column sums, balance, stationarity"):
        for nb in NB_GRID:
            spec = default_problem(nb, up_bd_neig=3.0)
            for beta in BETA_GRID:
                m = metropolis(spec, beta)
                pi = boltzmann(spec, beta)
                assert m.min() >= 0
                assert np.abs(m.sum(axis=0) - 1).max() <= 1e-12
                flow = m * pi[np.newaxis, :]
                assert np.abs(flow - flow.T).max() <= 1e-12
                assert np.abs(m @ pi - pi).max() <= 1e-12


def test_criterion_02_spectral_equivalence():
    with criterion(2, "chain and symmetrized chain share eigenvalues"):
        for nb in NB_GRID:
            spec = default_problem(nb, up_bd_neig=3.0)
            for beta in BETA_GRID:
                m = metropolis(spec, beta)
                data = spectral(m, boltzmann(spec, beta))
                raw = np.linalg.eigvals(m)          # independent general solver
                assert np.abs(raw.imag).max() < 1e-10
                assert np.abs(np.sort(raw.real)
                              - np.sort(data.eigenvalues)).max() <= 1e-10
                assert data.gap > 0


def _embedding_defect(q, nb):
    u = sim.to_matrix(qembed_circuit(q))
    ns = 1 << nb
    worst = 0.0
    for x in range(ns):
        for y in range(ns):
            for yt in range(ns):
                amp = u[(yt << nb) | y, x]
                want = math.sqrt(q[yt, x]) if y == x else 0.0
                worst = max(worst, abs(amp - want))
    return worst


def test_criterion_03_qembedding_exactness():
    with criterion(3, "embedding amplitudes are delta(y,x) sqrt(q)"):
        rng = np.random.default_rng(2024)
        for nb in (1, 2):
            for _ in range(20):
                q = random_stochastic(rng, 1 << nb)
                assert _embedding_defect(q, nb) <= 1e-10
            spec = default_problem(nb)
            for beta in BETA_GRID:
                assert _embedding_defect(metropolis(spec, beta), nb) <= 1e-10


def test_criterion_04_walk_spectrum():
    with criterion(4, "walk eigenphases are the doubled chain angles"):
        for nb in (1, 2):
            spec = default_problem(nb)
            layout = WalkLayout(nb)
            ns = 1 << nb
            for beta in (0.0, 1.0):
                m = metropolis(spec, beta)
                pi = boltzmann(spec, beta)
                data = spectral(m, pi)
                w = sim.to_matrix(emit_W(m, layout))
                fixed = walk_state(np.sqrt(pi), layout)
                assert np.abs(w @ fixed - fixed).max() <= 1e-10
                expected = [0.0] * (ns * ns - 2 * (ns - 1))
                for phi in data.phis[1:]:
                    expected.extend((2 * phi, -2 * phi))
                assert phases_match(eig_unitary(w), expected, tol=1e-8)
        # hand check: nb=1, beta=0 has cos(2*phi_1) = -7/9
        phi1 = spectral(metropolis(default_problem(1), 0.0),
                        boltzmann(default_problem(1), 0.0)).phis[1]
        assert abs(math.cos(2 * phi1) - (-7 / 9)) <= 1e-12


def test_criterion_05_grover_recursion_identity():
    with criterion(5, "recursion holds as a matrix identity"):
        config = GeneratorConfig(default_problem(1), PEParams(1, 1, 2),
                                 AnnealingSchedule(0.5, 2))
        r_here = sim.to_matrix(r_tilde(config.schedule.beta(0), config))
        r_next = sim.to_matrix(r_tilde(config.schedule.beta(1), config))
        assert np.abs(sim.to_matrix(emit_U_grover(0, 0, config))
                      - np.eye(8)).max() == 0
        for d in (1, 2):
            u_prev = sim.to_matrix(emit_U_grover(0, d - 1, config))
            u_here = sim.to_matrix(emit_U_grover(0, d, config))
            want = u_prev @ r_here @ u_prev.conj().T @ r_next @ u_prev
            assert np.abs(u_here - want).max() <= 1e-9


def test_criterion_06_end_to_end_annealing():
    with criterion(6, "schedule product keeps norm and gains fidelity"):
        spec = default_problem(1)
        fidelities = {}
        for d_f in (0, 1):
            config = GeneratorConfig(spec, PEParams(2, 1, d_f),
                                     AnnealingSchedule(0.5, 2))
            mat = sim.to_matrix(emit_full(config))
            start = walk_state(np.sqrt(boltzmann(spec, 0.0)), config.layout)
            target = walk_state(np.sqrt(boltzmann(spec, 1.0)), config.layout)
            out = mat @ start
            assert abs(np.linalg.norm(out) - 1) <= 1e-10
            fidelities[d_f] = abs(np.vdot(target, out)) ** 2
        print(f"    fidelity at depth 0: {fidelities[0]:.6f}, "
              f"depth 1: {fidelities[1]:.6f}")
        assert fidelities[1] >= fidelities[0] - 0.05


def test_criterion_07_expansion_equivalence():
    with criterion(7, "expanded ladders equal their multiplexors"):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 4):
            for _ in range(10):
                bits = rng.permutation(k + 1)
                mux = mp_y(int(bits[0]),
                           [MuxControl(int(b), i)
                            for i, b in enumerate(sorted(bits[1:]))],
                           rng.uniform(-180, 180, size=1 << k))
                whole = Circuit(k + 1, (mux,))
                flat = Circuit(k + 1, tuple(expand_mux(mux)))
                assert np.abs(sim.to_matrix(flat)
                              - sim.to_matrix(whole)).max() <= 1e-10
        config = GeneratorConfig(default_problem(1), PEParams(1, 1, 1),
                                 AnnealingSchedule(0.5, 1))
        circuit = emit_full(config)
        _, english, _ = expand_file(write_english(circuit), write_picture(circuit))
        expanded = parse_english(english, num_qubits=circuit.num_qubits)
        assert np.abs(sim.to_matrix(expanded)
                      - sim.to_matrix(circuit)).max() <= 1e-9


ENGLISH_TABLE = [
    (lambda: swap(1, 0, (Control(3, False), Control(2, True))), 4,
     "SWAP  1  0  IF  3F  2T", "0---@---<--->"),
    (lambda: phas(42.7, (Control(3, False), Control(2, True))), 4,
     "PHAS 42.7 IF  3F  2T", "0---@---+--Ph"),
    (lambda: p0ph(42.7, 3, (Control(2, True),)), 4,
     "P0PH 42.7 AT  3 IF 2T", "0P--@   |   |"),
    (lambda: p1ph(42.7, 3, (Control(2, True),)), 4,
     "P1PH 42.7 AT  3 IF 2T", "@P--@   |   |"),
    (lambda: sigx(1, (Control(3, False), Control(2, True))), 4,
     "SIGX  AT  1  IF  3F  2T", "0---@---X   |"),
    (lambda: sigy(1, (Control(3, False), Control(2, True))), 4,
     "SIGY  AT  1  IF  3F  2T", "0---@---Y   |"),
    (lambda: sigz(1, (Control(3, False), Control(2, True))), 4,
     "SIGZ  AT  1  IF  3F  2T", "0---@---Z   |"),
    (lambda: had2(1, (Control(3, False), Control(2, True))), 4,
     "HAD2  AT  1  IF  3F  2T", "0---@---H   |"),
    (lambda: rotx(23.7, 1, (Control(3, False), Control(2, True))), 4,
     "ROTX  23.7  AT  1  IF  3F  2T", "0---@---Rx  |"),
    (lambda: roty(23.7, 1, (Control(3, False), Control(2, True))), 4,
     "ROTY  23.7  AT  1  IF  3F  2T", "0---@---Ry  |"),
    (lambda: rotz(23.7, 1, (Control(3, False), Control(2, True))), 4,
     "ROTZ  23.7  AT  1  IF  3F  2T", "0---@---Rz  |"),
    (lambda: rotn(30.0, 40.0, 11.0, 1, (Control(3, False), Control(2, True))), 4,
     "ROTN  30.0 40.0 11.0  AT  1  IF  3F  2T", "0---@---R   |"),
    (lambda: mp_y(3, (MuxControl(2, 1), MuxControl(1, 0)),
                  (30.0, 10.5, 11.0, 83.1), (Control(0, True),)), 5,
     "MP_Y  AT  3 IF 2(1 1(0 0T BY 30.0 10.5 11.0 83.1",
     "|   Ry--(1--(0--@"),
]


def test_criterion_08_format_golden():
    with criterion(8, "translation tables byte-exact, parse o write = id"):
        for make, n, eng, pic in ENGLISH_TABLE:
            circuit = Circuit(n, (make(),))
            assert write_english(circuit) == eng + "\n"
            assert write_picture(circuit) == pic + "\n"
        looped = Circuit(1, tuple(had2(0) for _ in range(5)) + (Loop(2, (sigx(0),)),))
        assert write_english(looped).splitlines()[5] == "LOOP 5 REPS: 2"
        assert write_english(looped).splitlines()[7] == "NEXT 5"
        assert write_picture(looped).splitlines()[5] == "LOOP 5 REPS:2"
        assert write_picture(looped).splitlines()[7] == "NEXT 5"
        rng = np.random.default_rng(88)
        for _ in range(100):
            circuit = random_circuit(rng)
            text = write_english(circuit)
            again = parse_english(text, num_qubits=circuit.num_qubits)
            assert spliced(again) == circuit
            assert write_english(again) == text


def test_criterion_09_counting_rule():
    with criterion(9, "op counts match literal loop unrolling"):
        rng = np.random.default_rng(99)
        seen_nested = 0
        for _ in range(50):
            circuit = random_circuit(rng, max_items=10)
            assert count_elementary_ops(circuit) == len(manual_unroll(circuit.body))
            seen_nested += sum(isinstance(inner, Loop) for outer in circuit.body
                               if isinstance(outer, Loop) for inner in outer.body)
        assert seen_nested > 0  # the sample really exercised nested loops


def test_criterion_10_qubit_count_formula():
    with criterion(10, "generator reports 2*nb + a*c qubits"):
        for nb in (1, 2, 3):
            for a in (1, 2):
                for c in (1, 2, 4):
                    config = GeneratorConfig(default_problem(nb), PEParams(a, c, 1),
                                             AnnealingSchedule(0.5, 1))
                    assert config.num_qubits == 2 * nb + a * c
                    assert emit_full(config).num_qubits == 2 * nb + a * c
