"""Quantum circuit generator for Markov-chain simulated annealing.

Builds gate sequences (textual "english"/"picture" files) that realize a
Szegedy walk for a Metropolis chain, phase estimation against it, and a
pi/3 fixed-point annealing schedule; ships an exact multiplexor expander
and a dense simulator used to verify everything numerically.
"""
from .ir import (Circuit, Control, Instruction, Loop, MuxControl, Opcode, ParseError, Seq,
                 count_elementary_ops, dagger, parse_english, with_control,
                 write_english, write_picture)
from .markov import (AnnealingSchedule, ProblemSpec, SpectralData, boltzmann,
                     default_problem, metropolis, spectral, symmetrized)
from .qembed import qembed_angles, qembed_circuit
from .szegedy import WalkLayout, emit_reflection, emit_U, emit_W, walk_state
from .annealer import (GeneratorConfig, PEParams, emit_full, emit_R_tilde,
                       emit_U_grover, emit_V, inverse_qft)
from .mux_expander import expand_file, expand_mux
from .sim import apply, basis_state, eig_unitary, phases_match, to_matrix

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule", "Circuit", "Control", "GeneratorConfig", "Instruction",
    "Loop", "MuxControl", "Opcode", "PEParams", "ParseError",
    "ProblemSpec", "Seq", "SpectralData", "WalkLayout", "apply", "basis_state",
    "boltzmann", "count_elementary_ops", "dagger", "default_problem",
    "eig_unitary", "emit_R_tilde", "emit_U", "emit_U_grover", "emit_V",
    "emit_W", "emit_full", "emit_reflection",
    "expand_file", "expand_mux", "inverse_qft", "metropolis",
    "parse_english", "phases_match", "qembed_angles", "qembed_circuit",
    "spectral", "symmetrized", "to_matrix", "walk_state",
    "with_control", "write_english", "write_picture",
]
