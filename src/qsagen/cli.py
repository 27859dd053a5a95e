"""Command-line frontend.

Subcommands:

    generate   emit the annealing circuit for a problem/schedule as a
               <prefix>_qsann_log.txt / _eng.txt / _pic.txt file triple
    expand     rewrite a file pair with every multiplexor expanded into
               rotations and CNOTs (exact mode only)
    simulate   apply an english file to a basis state and print amplitudes
    verify     run the numerical cross-checks of `qsagen.checks` at desk scale

Exit codes: 0 success, 1 validation or check failure, 2 usage error.
Diagnostics go to stderr as ``Message: ...`` lines.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Callable, Iterator, TextIO

import numpy as np

from . import checks, mux_expander, sim
from .annealer import GeneratorConfig, PEParams, emit_full
from .ir import ParseError, format_number, parse_english, render
from .markov import AnnealingSchedule, boltzmann, check_beta, default_problem, metropolis


def _fail(message: str, code: int = 1) -> int:
    print(f"Message: {message}", file=sys.stderr)
    return code


class _FileError(Exception):
    """A file a command needs cannot be read or written; `main` reports it."""


def _writing(path: str, call, *args, **kwargs):
    """call(*args, **kwargs), with an OSError reported as path unwritable."""
    try:
        return call(*args, **kwargs)
    except OSError as err:
        raise _FileError(f"cannot write {path}: {err.strerror}") from None


def _write(path: str, handle: TextIO, chunks: list[str]) -> None:
    """Append chunks to the file being written for path, in one join: `render`
    hands on about a slice of text at a time, so no join copies more."""
    _writing(path, handle.write, "".join(chunks))


@contextlib.contextmanager
def _creating(*paths: str) -> Iterator[list[Callable[[list[str]], None]]]:
    """Writers of the files at paths, all or none.  Each writes a temporary
    file beside its path; when the block completes, every one is closed and
    then moved onto its path.  On any error the temporaries are removed."""
    handles: dict[str, TextIO] = {}
    try:
        for path in paths:
            temp = f"{path}.{os.urandom(4).hex()}.tmp"
            handles[path] = _writing(path, open, temp, "x", newline="\n")
        yield [functools.partial(_write, path, handle) for path, handle in handles.items()]
        for path, handle in handles.items():
            _writing(path, handle.close)
        for path, handle in handles.items():
            _writing(path, _move, handle.name, path)
    finally:
        for handle in handles.values():
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(handle.name)


def _move(temp: str, path: str) -> None:
    """os.replace(temp, path), with any file at path removed first: a rename
    over a file makes ext4 (auto_da_alloc) allocate temp's blocks and start
    writing them at once, where a new name leaves them to the usual
    writeback.  Between the two calls no file is at path."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    os.replace(temp, path)


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
    with _creating(f"{args.prefix}_qsann_log.txt", f"{args.prefix}_qsann_eng.txt",
                   f"{args.prefix}_qsann_pic.txt") as (log, english, picture):
        num_ops = render(circuit, english, picture)
        log([f"{line}\n" for line in (
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
        )])
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
        circuit = mux_expander.parse_pair(eng_text, pic_text)
        with _creating(f"{args.out_prefix}_log.txt", f"{args.out_prefix}_eng.txt",
                       f"{args.out_prefix}_pic.txt") as (log, english, picture):
            log_tail = mux_expander.expand(circuit, english, picture)
            log([f"Prefix for Input Files: {args.in_prefix}\n",
                 f"Prefix for Output Files: {args.out_prefix}\n", log_tail])
    except (ParseError, ValueError) as err:
        return _fail(str(err))
    print(log_tail.splitlines()[-1])
    print(f"Wrote {args.out_prefix}_log.txt, {args.out_prefix}_eng.txt, "
          f"{args.out_prefix}_pic.txt")
    return 0


# --- simulate -------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    if not np.isfinite(args.cutoff):
        return _fail(f"cutoff must be finite, got {args.cutoff}")
    if args.qubits is not None and args.qubits < 1:
        return _fail(f"qubits must be >= 1, got {args.qubits}")
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
    for k in np.flatnonzero(np.abs(state) > args.cutoff):
        amp = state[k]
        print(f"|{k:0{n}b}>  {amp.real:+.12f}  {amp.imag:+.12f}")
    return 0


# --- verify ---------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    try:
        for beta in args.beta:
            check_beta(beta)
        config = GeneratorConfig(default_problem(args.nb, args.up_bd_neig),
                                 PEParams(args.probe_bits, args.pe_steps, 1),
                                 AnnealingSchedule(0.5, 1))
    except ValueError as err:
        return _fail(str(err))
    if config.num_qubits > sim.MAX_STATE_QUBITS:
        return _fail(f"{config.num_qubits} qubits exceeds the simulation cap of "
                     f"{sim.MAX_STATE_QUBITS}", 2)
    failures = 0
    for beta in args.beta:
        point = checks.Point(config, metropolis(config.problem, beta),
                             boltzmann(config.problem, beta), args.corrupt_angle)
        for name, check, tol in checks.CHECKS:
            try:
                defect = check(point)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone: send what is left, and the flush
        # at exit, to devnull, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
