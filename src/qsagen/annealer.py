"""Assembly of the full annealing circuit.

The circuit runs on 2*nb + a*c qubits: the two walk registers low, then c
probe blocks of a qubits each.  Per inverse temperature the building blocks
are

    V(beta)     c sequential phase-estimation blocks against the walk
                operator W(beta): Hadamards on the block, controlled
                W^(2^j) powers (W as a Seq, the others as Loops),
                inverse Fourier transform on the block;
    Q           exp(i*pi/3) on the all-zero probe subspace;
    R(beta)     V(beta)^dagger . Q . V(beta), a soft reflection about the
                stationary state;

and the per-temperature operator follows the fixed-point recursion

    G(t, 0)   = identity
    G(t, d+1) = G(t, d) . R(beta_t) . G(t, d)^dagger . R(beta_{t+1}) . G(t, d)

applied right to left.  The full circuit is the product of G(t, depth) over
the schedule, t = 0 first.

Nothing whose size grows with d is inverted.  With G = G(t, d), and V = V(beta)
built once per beta along with its inverse, the emitter carries each inverse along:

    G(t, d+1)^dagger = G^dagger . R(beta_{t+1})^dagger . G . R(beta_t)^dagger . G^dagger
    R(beta)^dagger   = V^dagger . Q^dagger . V

Each block is one shared node (see `ir`): V(beta) and V(beta)^dagger are
Seqs built once per beta, the four reflections of each t Seqs of three
references, and G(t, d+1) and its inverse Seqs of five references to the
level below and to the reflections.  The
circuit's text grows as 3^d, but its tree holds O(d) nodes per temperature
on top of the V blocks, so emitting and checking it cost O(distinct nodes),
and rendering it that plus O(placements of nodes), not O(lines).

The inverse Fourier stage is emitted swap-free, so probe outcomes appear
bit-reversed; the all-zeros outcome (the only one Q rewards) is fixed by the
reversal, hence R(beta) is unchanged by this choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ir import Circuit, Control, Instruction, Loop, Seq, dagger, had2, p1ph, phas, with_control
from .markov import AnnealingSchedule, ProblemSpec, metropolis
from .szegedy import WalkLayout, emit_W

Q_ANGLE_DEG = 60.0


@dataclass(frozen=True)
class PEParams:
    """Phase-estimation sizing: a probe bits per step, c steps, and the
    recursion depth of the fixed-point search."""

    probe_bits: int
    pe_steps: int
    grover_depth: int

    def __post_init__(self):
        if self.probe_bits < 1:
            raise ValueError(f"probe_bits must be >= 1, got {self.probe_bits}")
        if self.pe_steps < 1:
            raise ValueError(f"pe_steps must be >= 1, got {self.pe_steps}")
        if self.grover_depth < 0:
            raise ValueError(f"grover_depth must be >= 0, got {self.grover_depth}")


@dataclass(frozen=True)
class GeneratorConfig:
    problem: ProblemSpec
    pe: PEParams
    schedule: AnnealingSchedule
    conjugate_q: bool = False

    @property
    def nb(self) -> int:
        return self.problem.nb

    @property
    def num_qubits(self) -> int:
        return 2 * self.nb + self.pe.probe_bits * self.pe.pe_steps

    @property
    def layout(self) -> WalkLayout:
        return WalkLayout(self.nb, self.num_qubits)

    @property
    def probe_bit_list(self) -> tuple[int, ...]:
        return tuple(range(2 * self.nb, self.num_qubits))


def inverse_qft(bits: Sequence[int]) -> tuple[Instruction, ...]:
    """Swap-free inverse Fourier transform on the given bits (LSB first).

    Maps the phase state sum_p exp(2*pi*i*m*p/2**a) |p> to the bit-reversed
    basis state |rev(m)>; in particular the uniform state goes to |0...0>.
    """
    bits = tuple(bits)
    a = len(bits)
    out: list[Instruction] = []
    for j in reversed(range(a)):
        out.append(had2(bits[j]))
        for k in reversed(range(j)):
            out.append(p1ph(-180.0 / (1 << (j - k)), bits[j],
                            [Control(bits[k], on=True)]))
    return tuple(out)


def _walk(beta: float, config: GeneratorConfig) -> tuple[Instruction, ...]:
    """The gates of the walk W(beta)."""
    return emit_W(metropolis(config.problem, beta), config.layout).body


def _v_body(w: tuple[Instruction, ...],
            config: GeneratorConfig) -> tuple[Instruction | Seq | Loop, ...]:
    a = config.pe.probe_bits
    body: list[Instruction | Seq | Loop] = []
    for block in range(config.pe.pe_steps):
        base = 2 * config.nb + block * a
        block_bits = range(base, base + a)
        body.extend(had2(b) for b in block_bits)
        for j in range(a):
            controlled = with_control(w, Control(base + j, on=True))
            if j == 0:
                body.append(Seq(controlled))
            else:
                body.append(Loop(1 << j, controlled))
        body.extend(inverse_qft(block_bits))
    return tuple(body)


def emit_V(beta: float, config: GeneratorConfig) -> Circuit:
    """The c-step phase-estimation operator against W(beta)."""
    return Circuit(config.num_qubits, _v_body(_walk(beta, config), config))


def _q_gate(config: GeneratorConfig, angle_deg: float) -> Instruction:
    return phas(angle_deg, [Control(b, on=False) for b in config.probe_bit_list])


def _v_pair(w: tuple[Instruction, ...], config: GeneratorConfig) -> tuple[Seq, Seq]:
    v = Seq(_v_body(w, config))
    return v, dagger((v,))[0]


def _r_body(v_pair: tuple[Seq, Seq], config: GeneratorConfig, q_angle_deg: float) -> tuple:
    return v_pair[0], _q_gate(config, q_angle_deg), v_pair[1]  # inverse: negate the angle


def emit_R_tilde(w: Circuit, config: GeneratorConfig,
                 q_angle_deg: float = Q_ANGLE_DEG) -> Circuit:
    """V(beta)^dagger . Q . V(beta), phase estimation against the walk
    w = W(beta) on the 2*nb walk qubits; Q's phase angle is overridable."""
    return Circuit(config.num_qubits, _r_body(_v_pair(w.body, config), config, q_angle_deg))


def _grover_pair(t: int, d: int, config: GeneratorConfig, v_pairs: dict) -> tuple[Seq, Seq]:
    """(G(t, d), G(t, d)^dagger) as shared nodes, each level two Seqs of five
    references; v_pairs caches (V, V^dagger) by schedule index."""
    if not 0 <= t < config.schedule.t_f:
        raise ValueError(f"schedule index {t} outside 0..{config.schedule.t_f - 1}")
    if d < 0:
        raise ValueError(f"recursion depth must be >= 0, got {d}")
    for s in {t, t + 1} - v_pairs.keys():
        v_pairs[s] = _v_pair(_walk(config.schedule.beta(s), config), config)
    next_angle = -Q_ANGLE_DEG if config.conjugate_q else Q_ANGLE_DEG
    r_here, r_here_dag = (Seq(_r_body(v_pairs[t], config, a))
                          for a in (Q_ANGLE_DEG, -Q_ANGLE_DEG))
    r_next, r_next_dag = (Seq(_r_body(v_pairs[t + 1], config, a))
                          for a in (next_angle, -next_angle))
    g = g_dag = Seq()
    for _ in range(d):
        g, g_dag = (Seq((g, r_next, g_dag, r_here, g)),
                    Seq((g_dag, r_here_dag, g, r_next_dag, g_dag)))
    return g, g_dag


def emit_U_grover(t: int, d: int, config: GeneratorConfig) -> Circuit:
    """Fixed-point recursion at schedule index t, expanded to depth d."""
    return Circuit(config.num_qubits, _grover_pair(t, d, config, {})[0].body)


def emit_full(config: GeneratorConfig, prep: bool = False) -> Circuit:
    """Product of per-temperature operators over the whole schedule.

    With prep=True, Hadamards preparing the uniform (beta_0 = 0) stationary
    state on the beta register are prepended; by default preparation is the
    caller's job, as the operator product starts from it either way.  The
    body is the Hadamards and one shared G(t, depth) node per t.
    """
    body: tuple[Instruction | Seq, ...] = ()
    if prep:
        body += tuple(had2(config.nb + j) for j in range(config.nb))
    v_pairs: dict = {}
    body += tuple(_grover_pair(t, config.pe.grover_depth, config, v_pairs)[0]
                  for t in range(config.schedule.t_f))
    return Circuit(config.num_qubits, body)
