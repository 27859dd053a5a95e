"""Workload definitions shared by the runner and the worker.

Every workload runs the whole CLI flow on fixed inputs (no random inputs):
`generate --prep` of one problem, `expand` of the generated pair,
`simulate` of the expanded file and of the multiplexor-level file, and
`verify` of one problem (nb <= 2, the verification cap of the CLI).  The
betas are always 0, 0.5, 1.0.  A round is a fixed list of commands, so every
run attempts whole rounds of the same operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

BETAS = ("0", "0.5", "1.0")
COMMANDS = ("generate", "expand", "simulate", "simulate_mux", "verify")
PREFIX = "run"


@dataclass(frozen=True)
class Workload:
    flow: tuple[int, int, int, int]       # nb, probe bits a, pe steps c, depth d
    verify: tuple[int, int, int]          # nb, probe bits, pe steps
    pipelines: int = 1                    # generate -> expand -> simulate, per round
    extra: dict = field(default_factory=dict)   # runs per round beyond the pipelines;
                                                # simulate_mux and verify default to 1

    def argv(self, command: str) -> list[str]:
        nb, a, c, d = self.flow
        if command == "generate":
            return ["generate", "--prefix", PREFIX, "--nb", str(nb), "--probe-bits", str(a),
                    "--pe-steps", str(c), "--grover-depth", str(d),
                    "--num-betas", str(len(BETAS)), "--delta-beta", BETAS[1], "--prep"]
        if command == "expand":
            return ["expand", "--in-prefix", f"{PREFIX}_qsann", "--out-prefix", f"{PREFIX}_flat"]
        if command == "simulate":
            return ["simulate", "--in-prefix", f"{PREFIX}_flat"]
        if command == "simulate_mux":
            return ["simulate", "--in-prefix", f"{PREFIX}_qsann"]
        if command == "verify":
            vnb, va, vc = self.verify
            return ["verify", "--nb", str(vnb), "--probe-bits", str(va),
                    "--pe-steps", str(vc), "--beta", *BETAS]
        raise ValueError(f"unknown command {command!r}")

    def round(self) -> list[str]:
        """Commands of one round: the pipeline triples, then the other runs
        spread evenly, so that each command's samples span the round."""
        extra = {"simulate_mux": 1, "verify": 1, **self.extra}
        slots = sorted(((i + 0.5) / n, command) for command, n in extra.items() for i in range(n))
        return ["generate", "expand", "simulate"] * self.pipelines + [c for _, c in slots]

    def single_round(self) -> list[str]:
        """Each command once: the traced run and the warm-up."""
        return list(COMMANDS)


WORKLOADS = {
    # 11 qubits, 928 lines, 384 multiplexors with 4-7 controls: the Walsh sum
    # and the 2^11-amplitude kernel do nearly all the work.
    "wide": Workload(flow=(4, 3, 1, 1), verify=(2, 3, 1),
                     extra={"generate": 11, "verify": 5}),
    # 6 qubits, 13,922 lines, 5,120 multiplexors with 2-3 controls: per-line
    # and per-gate costs dominate.
    "deep": Workload(flow=(2, 2, 1, 4), verify=(2, 2, 1),
                     extra={"generate": 1, "verify": 10}),
    # verify at 10 qubits in matrix mode; the flow of the same problem at
    # depth 1 is cheap and repeated.
    "verify": Workload(flow=(2, 3, 2, 1), verify=(2, 3, 2), pipelines=2,
                       extra={"simulate_mux": 3, "generate": 13, "expand": 2}),
}

# The same code paths at a size that runs in a few seconds.
SMOKE = {
    "wide": Workload(flow=(2, 2, 1, 1), verify=(1, 2, 1)),
    "deep": Workload(flow=(1, 1, 1, 2), verify=(1, 1, 1)),
    "verify": Workload(flow=(1, 2, 1, 1), verify=(1, 2, 2)),
}

CORRUPT_ARGV = ["verify", "--nb", "1", "--probe-bits", "1", "--corrupt-angle"]

# Calls whose allocation peak the traced run records, as command.function.
PEAK_CALLS = ("expand.ir.parse_english", "expand.mux_expander.expand_circuit",
              "expand.ir.write_english", "expand.ir.write_picture",
              "simulate.sim.apply", "verify.sim.to_matrix")
