"""Unitary embedding of a column-stochastic matrix as multiplexor cascades.

Given a 2**nb dimensional matrix q with columns that are probability
distributions, the cascade built here acts on 2*nb qubits: the low register
(bits 0..nb-1) carries the input state x, the high register (bits nb..2nb-1)
starts at |0> and receives a fresh sample.  Stage s rotates bit nb+s,
multiplexed over all previously fixed bits, so that

    <y~ y| U |0 x> = delta(y, x) * sqrt(q[y~, x])

holds exactly: the amplitudes of the high register reproduce column x of q.

Stage angles are conditional-marginal splits: with the low bits of the
sample already pinned to a prefix, cos^2(theta) is the probability that the
next sample bit is 0 given the prefix and the input x.  A prefix of total
probability zero gets angle 0 (the branch is unreachable, any angle works).
`qembed_angles` returns one tuple of radians per stage, its sums taken by
one reshape of q and one contiguous sum per stage; `qembed_circuit` writes
each stage as one MP_Y line, its angles converted by `file_angle_deg`.
"""
from __future__ import annotations

import math

import numpy as np

from .ir import Circuit, MuxControl, mp_y

STOCHASTIC_TOL = 1e-9  # validate_stochastic: the most negative entry and column-sum defect


def validate_stochastic(q: np.ndarray) -> np.ndarray:
    """Check q is square, 2**nb dimensional, and column-stochastic."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    ns = q.shape[0]
    if ns < 2 or ns & (ns - 1):
        raise ValueError(f"dimension must be a power of two >= 2, got {ns}")
    if q.min() < -STOCHASTIC_TOL:
        raise ValueError(f"negative entry {q.min()} in probability matrix")
    defect = np.abs(q.sum(axis=0) - 1.0).max()
    if defect > STOCHASTIC_TOL:
        raise ValueError(f"columns do not sum to 1 (defect {defect:.3e})")
    return q


def qembed_angles(q: np.ndarray) -> list[tuple[float, ...]]:
    """Rotation angles (radians), one tuple per stage, in time order.  Entry
    w of stage s is the angle for the word w of bits 0..nb+s-1 (bit j gives
    bit j of w): the input x = w mod 2**nb and the sample prefix w >> nb."""
    q = validate_stochastic(q)
    ns = q.shape[0]
    stages = []
    for s in range(ns.bit_length() - 1):
        # Row y of q splits into (high bits, bit s, low s bits).  The high
        # bits go last and contiguous, so numpy adds them pairwise, bit for
        # bit as it adds a strided column slice; (prefix, x) flattens to w.
        split = np.moveaxis(q.reshape(ns >> (s + 1), 2, 1 << s, ns), 0, -1)
        stay, flip = np.ascontiguousarray(split).sum(-1).reshape(2, -1).tolist()
        stages.append(tuple(math.atan2(math.sqrt(max(f, 0.0)), math.sqrt(max(t, 0.0)))
                            for t, f in zip(stay, flip)))
    return stages


def file_angle_deg(theta_rad: float) -> float:
    """Convert an embedding rotation exp(-i*theta*sigma_y) to the angle a
    multiplexor line carries, whose kernel is exp(+i*(pi/180)*angle*sigma_y)."""
    return -math.degrees(theta_rad)


def qembed_circuit(q: np.ndarray, num_qubits: int | None = None) -> Circuit:
    """The embedding cascade as a circuit: nb multiplexor lines, smallest first."""
    stages = qembed_angles(q)
    nb = len(stages)
    if num_qubits is None:
        num_qubits = 2 * nb
    if num_qubits < 2 * nb:
        raise ValueError(f"need at least {2 * nb} qubits, got {num_qubits}")
    return Circuit(num_qubits, tuple(
        mp_y(nb + s, [MuxControl(bit, bit) for bit in range(nb + s)],
             [file_angle_deg(t) for t in angles])
        for s, angles in enumerate(stages)))
