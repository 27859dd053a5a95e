"""Oracles computed apart from qsagen: closed-form sizes of the generated
circuit, a reader of english files, and a dense operator-level model of the
annealing run.

Nothing here imports qsagen.  The model follows the definitions of the
construction directly:

* the Metropolis chain of E(x) = (x - NS/2)^2 with neighbours |x - y| <= 1;
* the embedding Uc as a dense 4^nb unitary, one y-rotation per sample bit
  whose cos^2 is the conditional marginal of that bit;
* the walk W = U R_beta U^dagger R_alpha with U = S Uc^dagger S Uc;
* phase estimation as H, then sum_p |p><p| (x) W^p, then the inverse Fourier
  transform (bit-reversed), per probe block;
* R(beta) = V^dagger Q V with Q = exp(i pi/3) on the all-zero probe;
* the recursion G(t, d+1) = G(t, d) R(beta_t) G(t, d)^dagger R(beta_t+1) G(t, d).
"""
from __future__ import annotations

import math

import numpy as np

Q_PHASE = np.exp(1j * math.pi / 3)


# --- closed-form sizes ------------------------------------------------------------

def closed_form_counts(nb: int, a: int, c: int, d: int, num_betas: int) -> dict:
    """Sizes of `qsagen generate --prep` output and of its expansion.

    One W(beta) is 2 + 8 nb lines.  A phase-estimation block is a Hadamards,
    a controlled W copies (LOOP-wrapped for j >= 1), and an inverse Fourier
    transform of a(a+1)/2 lines; V is c blocks, R = 2V + 1, and the
    recursion writes 3^d - 1 copies of R per temperature step.  Loop weights
    count W^(2^j) as 2^j copies.  An MP_Y line with k named controls expands
    to 2^(k+1) gates; every W holds four cascades with k = nb..2nb-1.
    """
    w_lines = 2 + 8 * nb
    block_lines = a + a * w_lines + 2 * (a - 1) + a * (a + 1) // 2
    block_ops = a + w_lines * ((1 << a) - 1) + a * (a + 1) // 2
    r_copies = (num_betas - 1) * (3 ** d - 1)
    lines = nb + r_copies * (2 * c * block_lines + 1)
    ops = nb + r_copies * (2 * c * block_ops + 1)
    w_copies_lines = r_copies * 2 * c * a
    w_copies_ops = r_copies * 2 * c * ((1 << a) - 1)
    mux_ks = [nb + s for s in range(nb)] * 4
    growth = sum((1 << (k + 1)) - 1 for k in mux_ks)
    return {
        "num_qubits": 2 * nb + a * c,
        "eng_lines": lines,
        "elementary_ops": ops,
        "expanded_lines": lines + w_copies_lines * growth,
        "expanded_ops": ops + w_copies_ops * growth,
        "mux_lines": w_copies_lines * len(mux_ks),
        "walsh_terms": w_copies_lines * sum(4 ** k for k in mux_ks),
    }


def read_english(text: str) -> dict:
    """Line count, loop-weighted op count and multiplexor statistics of an
    english file, read token by token."""
    lines = text.splitlines()
    reps: list[int] = []
    weight, ops, mux_ops, walsh = 1, 0, 0, 0
    mux = []
    for line in lines:
        head = line.split(None, 1)[0]
        if head == "LOOP":
            reps.append(int(line.split()[-1]))
            weight *= reps[-1]
        elif head == "NEXT":
            weight //= reps.pop()
        else:
            ops += weight
            if head == "MP_Y":
                mux_ops += weight
                mux.append(line)
                walsh += 4 ** line.count("(")
    if reps:
        raise ValueError("unclosed LOOP")
    return {"lines": len(lines), "ops": ops, "mux_lines": len(mux),
            "distinct_mux_lines": len(set(mux)), "mux_ops": mux_ops,
            "walsh_terms": walsh}


def read_amplitudes(text: str, num_qubits: int) -> np.ndarray:
    """State vector from `qsagen simulate` output lines `|bits>  re  im`."""
    state = np.zeros(1 << num_qubits, dtype=complex)
    for line in text.splitlines():
        ket, re_part, im_part = line.split()
        bits = ket[1:-1]
        if len(bits) != num_qubits:
            raise ValueError(f"ket {ket} is not {num_qubits} qubits wide")
        state[int(bits, 2)] = complex(float(re_part), float(im_part))
    return state


# --- the chain ----------------------------------------------------------------------

def metropolis(nb: int, beta: float, up_bd_neig: float = 3.0) -> np.ndarray:
    ns = 1 << nb
    energy = (np.arange(ns) - ns / 2) ** 2
    m = np.zeros((ns, ns))
    for x in range(ns):
        for y in (x - 1, x + 1):
            if 0 <= y < ns:
                m[y, x] = min(1.0, math.exp(-beta * (energy[y] - energy[x]))) / up_bd_neig
    m += np.diag(1.0 - m.sum(axis=0))
    return m


def boltzmann(nb: int, beta: float) -> np.ndarray:
    ns = 1 << nb
    energy = (np.arange(ns) - ns / 2) ** 2
    w = np.exp(-beta * (energy - energy.min()))
    return w / w.sum()


# --- the walk -----------------------------------------------------------------------

def embedding(q: np.ndarray) -> np.ndarray:
    """Dense Uc on 2nb qubits: input x on the low register, the sample
    written bit by bit into the high register."""
    ns = q.shape[0]
    nb = ns.bit_length() - 1
    dim = ns * ns
    u = np.eye(dim)
    for s in range(nb):
        bit = 1 << (nb + s)
        low = np.arange(ns)
        stage = np.zeros((dim, dim))
        for idx in range(dim):
            if idx & bit:
                continue
            x, prefix = idx & (ns - 1), (idx >> nb) & ((1 << s) - 1)
            fixed = (low & ((1 << s) - 1)) == prefix
            p0 = q[fixed & ((low >> s) & 1 == 0), x].sum()
            p1 = q[fixed & ((low >> s) & 1 == 1), x].sum()
            theta = math.atan2(math.sqrt(max(p1, 0.0)), math.sqrt(max(p0, 0.0)))
            cs, sn = math.cos(theta), math.sin(theta)
            stage[idx, idx], stage[idx | bit, idx] = cs, sn
            stage[idx, idx | bit], stage[idx | bit, idx | bit] = -sn, cs
        u = stage @ u
    return u


def walk(q: np.ndarray) -> np.ndarray:
    ns = q.shape[0]
    nb = ns.bit_length() - 1
    idx = np.arange(ns * ns)
    lo, hi = idx & (ns - 1), idx >> nb
    swap = np.zeros((ns * ns, ns * ns))
    swap[(lo << nb) | hi, idx] = 1.0
    uc = embedding(q)
    u = swap @ uc.T @ swap @ uc
    r_alpha = np.diag(np.where(lo == 0, -1.0, 1.0))
    r_beta = np.diag(np.where(hi == 0, -1.0, 1.0))
    return u @ r_beta @ u.conj().T @ r_alpha


# --- phase estimation, reflection, recursion ------------------------------------

def _hadamard(a: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(a):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
    return h


def _inverse_fourier(a: int) -> np.ndarray:
    """|phi_m> = sum_p exp(2 pi i m p / N)|p> / sqrt(N)  ->  |rev(m)>."""
    n = 1 << a
    m = np.arange(n)
    f = np.exp(-2j * math.pi * np.outer(m, m) / n) / math.sqrt(n)
    rev = np.array([int(format(k, f"0{a}b")[::-1], 2) for k in m]) if a else m
    out = np.zeros_like(f)
    out[rev] = f
    return out


class AnnealingModel:
    """Dense model of `qsagen generate --prep` for the stock problem."""

    def __init__(self, nb: int, a: int, c: int, betas):
        self.nb, self.a, self.c = nb, a, c
        self.betas = tuple(betas)
        self.walk_dim = 1 << (2 * nb)
        self.probe_dim = 1 << (a * c)
        self._had = _hadamard(a)
        self._qft = _inverse_fourier(a)
        self._bases = [self._reflection_basis(beta) for beta in self.betas]

    def _block(self, x: np.ndarray, b: int, op) -> np.ndarray:
        n = 1 << self.a
        hi = 1 << (self.a * (self.c - 1 - b))
        lo = 1 << (self.a * b)
        return op(x.reshape(hi, n, lo, self.walk_dim, -1)).reshape(x.shape)

    def _reflection_basis(self, beta: float) -> np.ndarray:
        """Columns V^dagger |probe 0, walk k>, so that R = 1 + (Q-1) B B^dagger."""
        w = walk(metropolis(self.nb, beta))
        powers = [np.eye(self.walk_dim, dtype=complex)]
        for _ in range((1 << self.a) - 1):
            powers.append(w @ powers[-1])
        x = np.zeros((self.probe_dim, self.walk_dim, self.walk_dim), dtype=complex)
        x[0] = np.eye(self.walk_dim)

        def on_block(mat):
            return lambda y: np.moveaxis(np.tensordot(mat, y, axes=(1, 1)), 0, 1)

        def powers_dagger(y):
            out = np.empty_like(y)
            for p, wp in enumerate(powers):
                out[:, p] = wp.conj().T @ y[:, p]
            return out

        qft_dagger, had = on_block(self._qft.conj().T), on_block(self._had)

        for b in reversed(range(self.c)):
            for op in (qft_dagger, powers_dagger, had):
                x = self._block(x, b, op)
        return x.reshape(self.probe_dim * self.walk_dim, self.walk_dim)

    def reflect(self, t: int, state: np.ndarray, inverse: bool = False) -> np.ndarray:
        basis = self._bases[t]
        phase = np.conj(Q_PHASE) if inverse else Q_PHASE
        return state + (phase - 1) * (basis @ (basis.conj().T @ state))

    def schedule(self, depth: int) -> list[tuple[int, bool]]:
        """Time-ordered reflections (beta index, inverse?) of the whole run."""
        ops: list[tuple[int, bool]] = []
        for t in range(len(self.betas) - 1):
            seq: list[tuple[int, bool]] = []
            for _ in range(depth):
                seq = (seq + [(t + 1, False)] + [(i, not inv) for i, inv in reversed(seq)]
                       + [(t, False)] + seq)
            ops += seq
        return ops

    def lifted(self, vec: np.ndarray) -> np.ndarray:
        """Vector on the beta (high walk) register; alpha and probes at 0."""
        state = np.zeros(self.probe_dim * self.walk_dim, dtype=complex)
        state[np.arange(len(vec)) << self.nb] = vec
        return state

    def final_state(self, depth: int) -> np.ndarray:
        ns = 1 << self.nb
        state = self.lifted(np.full(ns, 1 / math.sqrt(ns)))
        for t, inverse in self.schedule(depth):
            state = self.reflect(t, state, inverse)
        return state

    def target(self) -> np.ndarray:
        return self.lifted(np.sqrt(boltzmann(self.nb, self.betas[-1])))

    def fidelity(self, state: np.ndarray) -> float:
        return float(abs(np.vdot(self.target(), state)) ** 2)


# --- tests of the model itself --------------------------------------------------

def _phases_match(actual, expected, tol: float) -> bool:
    if len(actual) != len(expected):
        return False
    remaining = list(np.exp(1j * np.asarray(actual)))
    for z in np.exp(1j * np.asarray(expected)):
        dist = np.abs(np.asarray(remaining) - z)
        best = int(np.argmin(dist))
        if dist[best] > tol:
            return False
        remaining.pop(best)
    return True


def model_self_checks(model: AnnealingModel) -> dict[str, bool]:
    """Embedding columns, walk eigenphases against the chain spectrum, and
    the depth-0 fidelity, for every temperature of the model."""
    ns = 1 << model.nb
    checks = {}
    for beta in model.betas:
        m = metropolis(model.nb, beta)
        uc = embedding(m)
        cols = uc[:, :ns].reshape(ns, ns, ns)          # [sample, copy, x]
        want = np.einsum("yx,cx->ycx", np.sqrt(m), np.eye(ns))
        checks[f"embedding columns beta={beta}"] = bool(
            np.abs(cols - want).max() < 1e-10
            and np.abs(uc @ uc.T - np.eye(ns * ns)).max() < 1e-10)
        chain = np.linalg.eigvalsh(np.sqrt(m * m.T))[:-1]   # reversible: same spectrum as m
        expected = [0.0] * (ns * ns - 2 * (ns - 1))
        for lam in chain:
            angle = 2 * math.acos(float(np.clip(lam, -1.0, 1.0)))
            expected += [angle, -angle]
        phases = np.angle(np.linalg.eigvals(walk(m)))
        checks[f"walk eigenphases beta={beta}"] = _phases_match(phases, expected, 1e-8)
    overlap = np.sqrt(boltzmann(model.nb, model.betas[0]) * boltzmann(model.nb, model.betas[-1]))
    checks["depth-0 fidelity"] = bool(
        abs(model.fidelity(model.final_state(0)) - overlap.sum() ** 2) < 1e-12)
    return checks
