"""Quantum circuit generator for Markov-chain simulated annealing.

Builds gate sequences (textual "english"/"picture" files) that realize a
Szegedy walk for a Metropolis chain, phase estimation against it, and a
pi/3 fixed-point annealing schedule; ships an exact multiplexor expander
and a dense simulator used to verify everything numerically.  The names
below are the ones the README documents; everything else lives in the
submodules.
"""
from .ir import Circuit, Instruction, Loop, Seq, dagger, with_control, write_english
from .markov import AnnealingSchedule, boltzmann, default_problem, metropolis, spectral
from .qembed import qembed_circuit
from .szegedy import WalkLayout, emit_W, walk_state
from .annealer import GeneratorConfig, PEParams, emit_full
from .mux_expander import expand_file, expand_mux
from .sim import to_matrix

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule", "Circuit", "GeneratorConfig", "Instruction", "Loop",
    "PEParams", "Seq", "WalkLayout", "boltzmann", "dagger", "default_problem",
    "emit_W", "emit_full", "expand_file", "expand_mux", "metropolis",
    "qembed_circuit", "spectral", "to_matrix", "walk_state", "with_control",
    "write_english",
]
