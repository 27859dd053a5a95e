"""The invariants `qsagen verify` checks: each is a function of one `Point`
and returns a defect that must stay within its tolerance in `CHECKS`.  Every
circuit is applied to a few columns, never built as a matrix."""
from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from . import mux_expander, sim
from .annealer import GeneratorConfig, emit_R_tilde
from .ir import Circuit, Instruction, Opcode, parse_english, render_text
from .markov import spectral
from .qembed import qembed_circuit
from .szegedy import WalkLayout, emit_U, emit_W, walk_state


class Point:
    """The chain m with stationary vector pi at one beta, at the sizes of
    config; corrupt shifts an angle in the embedding and the walk.  A cached
    property is built by the first check that needs it, and again if it raised."""

    def __init__(self, config: GeneratorConfig, m, pi, corrupt: bool = False):
        self.config, self.m, self.pi, self.corrupt = config, m, pi, corrupt

    @cached_property
    def data(self):
        return spectral(self.m, self.pi)

    @cached_property
    def frame(self) -> np.ndarray:
        # Q: a basis of span(A, B), A the walk columns |x>_beta |0>_alpha and
        # B = U |0>_beta |y>_alpha; [A, B] has singular values sqrt(1 +- |lambda_j|),
        # so only lambda_0 = 1 drops out.  R: 4 seeded random columns orthogonal to Q.
        ns, layout = len(self.m), WalkLayout(self.config.nb)
        a = np.column_stack([walk_state(e, layout) for e in np.eye(ns)])
        b = sim.apply(emit_U(self.m, layout), np.eye(ns * ns, ns))
        q = np.linalg.svd(np.hstack([a, b]), full_matrices=False)[0][:, :2 * ns - 1]
        noise = np.frombuffer(random.Random(0).randbytes(8 * ns * ns), np.uint8) - 127.5
        r = noise.reshape(ns * ns, 8).view(complex)
        r -= q @ (q.conj().T @ r)
        return np.hstack([q, r / np.linalg.norm(r, axis=0)])

    @cached_property
    def walk(self) -> Circuit:
        return emit_W(self.m, WalkLayout(self.config.nb))

    @cached_property
    def walk_frame(self) -> np.ndarray:
        return sim.apply(self.walk, self.frame)


def column_sums(p: Point) -> float:
    return float(np.abs(p.m.sum(axis=0) - 1).max())


def detailed_balance(p: Point) -> float:
    flow = p.m * p.pi[np.newaxis, :]
    return float(np.abs(flow - flow.T).max())


def embedding(p: Point) -> float:
    # column x holds sqrt(m[yt, x]) at row (yt << nb) | y for y == x, else 0
    ns = len(p.m)
    u = sim.apply(corrupted(qembed_circuit(p.m), p.corrupt), np.eye(ns * ns, ns))
    want = np.sqrt(p.m)[:, None, :] * np.eye(ns)
    return float(np.abs(u.reshape(ns, ns, ns) - want).max())


def walk_spectrum(p: Point) -> float:
    # W acts on Q as H = Q^dagger W Q, with eigenphases 0 and +-2 phi_j; it fixes R
    phis = p.data.phis[1:]
    w = corrupted(p.walk, p.corrupt)
    w_frame = p.walk_frame if w is p.walk else sim.apply(w, p.frame)
    q, r = np.hsplit(p.frame, [2 * len(p.m) - 1])
    wq, wr = np.hsplit(w_frame, [2 * len(p.m) - 1])
    h = q.conj().T @ wq
    phases = np.concatenate([[0.0], 2 * phis, -2 * phis])
    return max(float(np.abs(wq - q @ h).max()), float(np.abs(wr - r).max()),
               circle_defect(np.linalg.eigvals(h), phases))


def mux_expansion(p: Point) -> float:
    # the bytes `expand` writes for W, parsed back, on the same columns
    _, english, picture = render_text(p.walk)
    _, expanded, _ = mux_expander.expand_file(english, picture)
    out = sim.apply(parse_english(expanded, num_qubits=p.walk.num_qubits), p.frame)
    return float(np.abs(out - p.walk_frame).max())


def fixed_point(p: Point) -> float:
    state = walk_state(p.data.vectors[:, 0], p.config.layout)
    out = sim.apply(emit_R_tilde(p.walk, p.config), state)
    want = np.exp(1j * np.pi / 3) * state
    return float(np.abs(out - want).max())


# (printed name, check, tolerance), in the order `verify` prints them
CHECKS = (
    ("column sums", column_sums, 1e-12),
    ("detailed balance", detailed_balance, 1e-12),
    ("q-embedding amplitudes", embedding, 1e-10),
    ("walk spectrum", walk_spectrum, 1e-8),
    ("mux expansion", mux_expansion, 1e-10),
    ("phase-reflection fixed point", fixed_point, 1e-8),
)


def circle_defect(values, phases) -> float:
    """Largest distance between the values and the points exp(i*phases), each
    phase matched in turn to its nearest unmatched value; inf if counts differ."""
    values = np.asarray(values, dtype=complex)
    if len(values) != len(phases):
        return float("inf")
    worst = 0.0
    for z in np.exp(1j * np.asarray(phases, dtype=float)):
        dists = np.abs(values - z)
        best = dists.argmin()
        worst = max(worst, float(dists[best]))
        values = np.delete(values, best)
    return worst


def corrupted(circuit: Circuit, corrupt: bool) -> Circuit:
    """The circuit with 5 degrees added to the first angle of its first
    MP_Y outside Loops, if corrupt is set."""
    if corrupt:
        body = circuit.body
        for i, node in enumerate(body):
            if type(node) is Instruction and node.opcode is Opcode.MP_Y:
                shifted = node.with_angles((node.angles_deg[0] + 5.0,) + node.angles_deg[1:])
                return Circuit(circuit.num_qubits, body[:i] + (shifted,) + body[i + 1:])
    return circuit
