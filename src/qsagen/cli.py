"""Command-line frontend.

Subcommands:

    generate   emit the annealing circuit for a problem/schedule as a
               <prefix>_qsann_log.txt / _eng.txt / _pic.txt file triple
    expand     rewrite a file pair with every multiplexor expanded into
               rotations and CNOTs (exact mode only)
    simulate   apply an english file to a basis state and print amplitudes
    verify     run the numerical cross-checks at desk scale

Exit codes: 0 success, 1 validation or check failure, 2 usage error.
Diagnostics go to stderr as ``Message: ...`` lines.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import mux_expander, sim
from .annealer import GeneratorConfig, PEParams, emit_R_tilde, emit_full
from .ir import Circuit, Opcode, ParseError, format_number, parse_english, render
from .markov import (AnnealingSchedule, boltzmann, check_beta, default_problem,
                     metropolis, spectral)
from .qembed import qembed_circuit
from .szegedy import WalkLayout, emit_W, walk_state

MAX_VERIFY_NB = 2


def _fail(message: str, code: int = 1) -> int:
    print(f"Message: {message}", file=sys.stderr)
    return code


class _FileError(Exception):
    """A file a command needs cannot be read or written; `main` reports it."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        raise _FileError(f"cannot write {path}: {err.strerror}") from None


def _read(path: str) -> str:
    try:
        with open(path, "r", newline="") as handle:
            return handle.read()
    except OSError as err:
        raise _FileError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise _FileError(f"cannot read {path}: {err}") from None


# --- generate -------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.nb < 1 or args.nb > 6:
        return _fail(f"Number of State Bits must be in 1..6, got {args.nb}")
    if args.grover_depth < 1:
        return _fail("Grover Depth must be >= 1")
    if args.num_betas < 2:
        return _fail(f"Number of Betas must be >= 2, got {args.num_betas}")
    if args.delta_beta <= 0:
        return _fail(f"Delta Beta Per Unit Time must be > 0, got {args.delta_beta}")
    try:
        config = GeneratorConfig(
            problem=default_problem(args.nb, args.up_bd_neig),
            pe=PEParams(args.probe_bits, args.pe_steps, args.grover_depth),
            schedule=AnnealingSchedule(args.delta_beta, args.num_betas - 1),
            conjugate_q=args.conjugate_q,
        )
    except ValueError as err:
        return _fail(str(err))
    circuit = emit_full(config, prep=args.prep)
    num_ops, english, picture = render(circuit)
    log = "".join(line + "\n" for line in (
        f"File Prefix: {args.prefix}",
        f"Number of State Bits: {args.nb}",
        f"Number of Probe Bits: {args.probe_bits}",
        f"Number of Phase Estimation Steps: {args.pe_steps}",
        f"Grover Depth: {args.grover_depth}",
        f"Upper Bound on Number of Neighbors: {format_number(args.up_bd_neig)}",
        f"Number of Betas: {args.num_betas}",
        f"Delta Beta Per Unit Time: {format_number(args.delta_beta)}",
        f"State Preparation: {'yes' if args.prep else 'no'}",
        f"Conjugate Q: {'yes' if args.conjugate_q else 'no'}",
        f"Number of Qubits: {circuit.num_qubits}",
        f"Number of Elementary Operations: {num_ops}",
    ))
    _write(f"{args.prefix}_qsann_log.txt", log)
    _write(f"{args.prefix}_qsann_eng.txt", english)
    _write(f"{args.prefix}_qsann_pic.txt", picture)
    print(f"Number of Qubits: {circuit.num_qubits}")
    print(f"Number of Elementary Operations: {num_ops}")
    print(f"Wrote {args.prefix}_qsann_log.txt, {args.prefix}_qsann_eng.txt, "
          f"{args.prefix}_qsann_pic.txt")
    return 0


# --- expand ---------------------------------------------------------------------

def cmd_expand(args: argparse.Namespace) -> int:
    if args.mode == "oracular":
        return _fail("compilation mode 'oracular' is not supported; use --mode exact", 2)
    if args.bit_precision is not None:
        print("Warning: --bit-precision is ignored in exact mode", file=sys.stderr)
    eng_text = _read(f"{args.in_prefix}_eng.txt")
    pic_text = _read(f"{args.in_prefix}_pic.txt")
    try:
        log_tail, eng_out, pic_out = mux_expander.expand_file(eng_text, pic_text)
    except (ParseError, ValueError) as err:
        return _fail(str(err))
    log = (f"Prefix for Input Files: {args.in_prefix}\n"
           f"Prefix for Output Files: {args.out_prefix}\n") + log_tail
    _write(f"{args.out_prefix}_log.txt", log)
    _write(f"{args.out_prefix}_eng.txt", eng_out)
    _write(f"{args.out_prefix}_pic.txt", pic_out)
    print(log_tail.splitlines()[-1])
    print(f"Wrote {args.out_prefix}_log.txt, {args.out_prefix}_eng.txt, "
          f"{args.out_prefix}_pic.txt")
    return 0


# --- simulate -------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    text = _read(f"{args.in_prefix}_eng.txt")
    try:
        circuit = parse_english(text, num_qubits=args.qubits)
    except ParseError as err:
        return _fail(str(err))
    n = circuit.num_qubits
    if n > sim.MAX_STATE_QUBITS:
        return _fail(f"{n} qubits exceeds the simulation cap of {sim.MAX_STATE_QUBITS}", 2)
    if not 0 <= args.initial < (1 << n):
        return _fail(f"initial basis state {args.initial} outside 0..{(1 << n) - 1}")
    state = sim.apply(circuit, sim.basis_state(n, args.initial))
    for k, amp in enumerate(state):
        if abs(amp) > args.cutoff:
            print(f"|{k:0{n}b}>  {amp.real:+.12f}  {amp.imag:+.12f}")
    return 0


# --- verify ---------------------------------------------------------------------

def _verify_checks(args: argparse.Namespace, config: GeneratorConfig):
    """Yield (name, beta, callable) triples; each callable returns a defect
    that must stay inside the advertised tolerance."""
    problem, nb = config.problem, config.nb
    layout = WalkLayout(nb)

    for beta in args.beta:
        m = metropolis(problem, beta)
        pi = boltzmann(problem, beta)

        def column_sums(m=m):
            return float(np.abs(m.sum(axis=0) - 1).max()), 1e-12

        def detailed_balance(m=m, pi=pi):
            flow = m * pi[np.newaxis, :]
            return float(np.abs(flow - flow.T).max()), 1e-12

        def embedding(m=m, beta=beta):
            u = sim.to_matrix(_maybe_corrupt(qembed_circuit(m), args))
            ns = 1 << nb
            worst = 0.0
            for x in range(ns):
                for y in range(ns):
                    for yt in range(ns):
                        amp = u[(yt << nb) | y, x]
                        want = np.sqrt(m[yt, x]) if y == x else 0.0
                        worst = max(worst, abs(amp - want))
            return worst, 1e-10

        def spectrum(m=m, pi=pi):
            data = spectral(m, pi)
            w = sim.to_matrix(_maybe_corrupt(emit_W(m, layout), args))
            ns = 1 << nb
            expected = [0.0] * (ns * ns - 2 * (ns - 1))
            for phi in data.phis[1:]:
                expected += [2 * phi, -2 * phi]
            ok = sim.phases_match(sim.eig_unitary(w), expected, tol=1e-8)
            return (0.0 if ok else 1.0), 1e-8

        def expansion(m=m):
            w = emit_W(m, layout)
            diff = sim.to_matrix(mux_expander.expand_circuit(w)) - sim.to_matrix(w)
            return float(np.abs(diff).max()), 1e-10

        def fixed_point(m=m, pi=pi, beta=beta):
            data = spectral(m, pi)
            state = walk_state(data.vectors[:, 0], config.layout)
            out = sim.apply(emit_R_tilde(beta, config), state)
            want = np.exp(1j * np.pi / 3) * state
            return float(np.abs(out - want).max()), 1e-8

        yield "column sums", beta, column_sums
        yield "detailed balance", beta, detailed_balance
        yield "q-embedding amplitudes", beta, embedding
        yield "walk spectrum", beta, spectrum
        yield "mux expansion", beta, expansion
        yield "phase-reflection fixed point", beta, fixed_point


def _maybe_corrupt(circuit: Circuit, args: argparse.Namespace) -> Circuit:
    if not args.corrupt_angle:
        return circuit
    body = list(circuit.body)
    for i, ins in enumerate(body):
        if ins.opcode is Opcode.MP_Y:
            angles = (ins.angles_deg[0] + 5.0,) + ins.angles_deg[1:]
            body[i] = replace(ins, angles_deg=angles)
            break
    return Circuit(circuit.num_qubits, tuple(body))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.nb > MAX_VERIFY_NB:
        return _fail(f"nb = {args.nb} exceeds the verification cap of {MAX_VERIFY_NB}", 2)
    total_qubits = 2 * args.nb + args.probe_bits * args.pe_steps
    if total_qubits > sim.MAX_MATRIX_QUBITS:
        return _fail(f"{total_qubits} qubits exceeds the simulation cap of "
                     f"{sim.MAX_MATRIX_QUBITS}", 2)
    try:
        for beta in args.beta:
            check_beta(beta)
        config = GeneratorConfig(default_problem(args.nb, args.up_bd_neig),
                                 PEParams(args.probe_bits, args.pe_steps, 1),
                                 AnnealingSchedule(0.5, 1))
    except ValueError as err:
        return _fail(str(err))
    failures = 0
    for name, beta, check in _verify_checks(args, config):
        try:
            defect, tol = check()
            ok = defect <= tol
        except ValueError as err:
            defect, ok = float("nan"), False
            print(f"Message: {err}", file=sys.stderr)
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{name:<30} beta={format_number(beta):<8} {status}   "
              f"(defect {defect:.2e})")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# --- dispatch -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsagen",
        description="Quantum circuit generator for Markov-chain simulated annealing.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write the annealing circuit file triple")
    g.add_argument("--prefix", required=True, help="output file prefix")
    g.add_argument("--nb", type=int, required=True, help="number of state bits")
    g.add_argument("--probe-bits", type=int, required=True,
                   help="probe bits per phase-estimation step")
    g.add_argument("--pe-steps", type=int, required=True,
                   help="number of phase-estimation steps")
    g.add_argument("--grover-depth", type=int, required=True,
                   help="fixed-point recursion depth")
    g.add_argument("--up-bd-neig", type=float, default=3.0,
                   help="upper bound on the number of neighbors (default 3)")
    g.add_argument("--num-betas", type=int, required=True,
                   help="number of inverse temperatures (>= 2)")
    g.add_argument("--delta-beta", type=float, required=True,
                   help="inverse-temperature increment (> 0)")
    g.add_argument("--prep", action="store_true",
                   help="prepend preparation of the uniform stationary state")
    g.add_argument("--conjugate-q", action="store_true",
                   help="use the conjugate phase in the advanced-beta reflection")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("expand", help="expand multiplexors into rotations and CNOTs")
    e.add_argument("--in-prefix", required=True, help="input file prefix")
    e.add_argument("--out-prefix", required=True, help="output file prefix")
    e.add_argument("--mode", choices=["exact", "oracular"], default="exact")
    e.add_argument("--bit-precision", type=int, default=None,
                   help="accepted for interface compatibility; ignored in exact mode")
    e.set_defaults(func=cmd_expand)

    s = sub.add_parser("simulate", help="apply an english file to a basis state")
    s.add_argument("--in-prefix", required=True, help="input file prefix")
    s.add_argument("--initial", type=int, default=0, help="initial basis state index")
    s.add_argument("--qubits", type=int, default=None,
                   help="qubit count (default: inferred)")
    s.add_argument("--cutoff", type=float, default=1e-12,
                   help="smallest amplitude magnitude printed")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run the numerical cross-checks")
    v.add_argument("--nb", type=int, default=1)
    v.add_argument("--probe-bits", type=int, default=1)
    v.add_argument("--pe-steps", type=int, default=1)
    v.add_argument("--up-bd-neig", type=float, default=3.0)
    v.add_argument("--beta", type=float, nargs="+", default=[0.0, 1.0])
    v.add_argument("--corrupt-angle", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FileError as err:
        return _fail(str(err))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
