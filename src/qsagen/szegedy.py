"""Szegedy walk operator over two dual qubit registers.

The walk for a reversible chain m acts on 2*nb qubits split into the alpha
register (bits 0..nb-1) and the beta register (bits nb..2nb-1).  Between
steps the chain state lives on the beta register with alpha at |0>: the
stationary vector is sum_y sqrt(pi(y)) |y>_beta |0>_alpha.

    W = U . R_beta . U^dagger . R_alpha        (rightmost acts first)

where R_reg flips the sign of the all-zeros subspace of one register and
U = swap . Ucheck^dagger . swap . Ucheck is built from the embedding cascade
of m.  On the busy subspace W rotates by twice the chain eigenangles; on its
orthogonal complement W is the identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Control, Instruction, dagger, phas, swap
from .qembed import qembed_circuit, validate_stochastic


@dataclass(frozen=True)
class WalkLayout:
    """Bit layout of the two walk registers inside a possibly larger circuit."""

    nb: int
    num_qubits: int | None = None

    def __post_init__(self):
        if self.nb < 1:
            raise ValueError(f"nb must be positive, got {self.nb}")
        if self.num_qubits is None:
            object.__setattr__(self, "num_qubits", 2 * self.nb)
        if self.num_qubits < 2 * self.nb:
            raise ValueError(
                f"layout needs at least {2 * self.nb} qubits, got {self.num_qubits}")

    @property
    def alpha_bits(self) -> tuple[int, ...]:
        return tuple(range(self.nb))

    @property
    def beta_bits(self) -> tuple[int, ...]:
        return tuple(range(self.nb, 2 * self.nb))


def register_swaps(layout: WalkLayout) -> tuple[Instruction, ...]:
    """SWAPs exchanging alpha_j with beta_j for every j."""
    return tuple(swap(layout.nb + j, j) for j in range(layout.nb))


def emit_U(q: np.ndarray, layout: WalkLayout) -> Circuit:
    """U = swap . Ucheck^dagger . swap . Ucheck (rightmost first in time)."""
    q = validate_stochastic(q)
    if q.shape[0] != 1 << layout.nb:
        raise ValueError(f"matrix dimension {q.shape[0]} does not match nb = {layout.nb}")
    cascade = qembed_circuit(q, layout.num_qubits).body
    swaps = register_swaps(layout)
    return Circuit(layout.num_qubits, cascade + swaps + dagger(cascade) + swaps)


def emit_W(q: np.ndarray, layout: WalkLayout) -> Circuit:
    """The walk operator: alpha reflection, U dagger, beta reflection, U; each
    reflection is a PHAS 180 line controlled on every bit of its register being false."""
    u = emit_U(q, layout).body
    r_alpha, r_beta = (phas(180.0, [Control(b, on=False) for b in bits])
                       for bits in (layout.alpha_bits, layout.beta_bits))
    return Circuit(layout.num_qubits, (r_alpha,) + dagger(u) + (r_beta,) + u)


def walk_state(vec: np.ndarray, layout: WalkLayout) -> np.ndarray:
    """Lift an NS-vector onto the full register: beta holds vec, alpha and
    any extra (probe) qubits are |0>."""
    vec = np.asarray(vec, dtype=complex)
    ns = 1 << layout.nb
    if vec.shape[0] != ns:
        raise ValueError(f"vector has dimension {vec.shape[0]}, expected {ns}")
    state = np.zeros(1 << layout.num_qubits, dtype=complex)
    state[np.arange(ns) << layout.nb] = vec
    return state
