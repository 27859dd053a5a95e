"""Benchmark of the qsagen CLI flow: generate -> expand -> simulate, and verify.

    python3 bench/run.py --workload {wide,deep,verify} --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  The package is run from `src/` without
installing it.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics.  The workloads use no random inputs; `--seed` only names the run.
A fuller record of each run (samples, checks, versions) is written under
`.bench_out/`.  See bench/README.md.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse                                   # noqa: E402
import json                                       # noqa: E402
import platform                                   # noqa: E402
import re                                         # noqa: E402
import shutil                                     # noqa: E402
import statistics                                 # noqa: E402
import subprocess                                 # noqa: E402
import sys                                        # noqa: E402
import time                                       # noqa: E402
from pathlib import Path                          # noqa: E402

import numpy as np                                # noqa: E402

import oracle                                     # noqa: E402
import speed                                      # noqa: E402
from workloads import BETAS, PEAK_CALLS, SMOKE, WORKLOADS   # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_STARTS = 9
SETUP_KERNELS = 5
DEADLINE_S = 170.0

# Defect bounds the README of qsagen states for each verify line; it gives
# none for the R fixed point, which gets the recursion identity's 1e-9.
VERIFY_TOLERANCES = {
    "column sums": 1e-12,
    "detailed balance": 1e-12,
    "q-embedding amplitudes": 1e-10,
    "walk spectrum": 1e-8,
    "mux expansion": 1e-10,
    "phase-reflection fixed point": 1e-9,
}
VERIFY_LINE = re.compile(r"^(.+?)\s+beta=(\S+)\s+(PASS|FAIL)\s+\(defect (\S+)\)$")
STATE_TOL = 1e-9


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    def equal(self, name: str, got, want) -> None:
        self.add(f"{name}: {got} == {want}", got == want)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def measure_setup(env: dict, cwd: Path, starts: int) -> list[float]:
    """Reference seconds of fresh interpreters through `import qsagen.cli`,
    each scaled by the speed kernel timed just before and after it."""
    times = []
    for _ in range(starts):
        kernels = [speed.timed_kernel() for _ in range(SETUP_KERNELS)]
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would quantize the figure.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qsagen.cli"], env=env, cwd=cwd,
                       check=True)
        wall = time.perf_counter() - start
        kernels += [speed.timed_kernel() for _ in range(SETUP_KERNELS)]
        times.append(wall * speed.REFERENCE_S / statistics.median(kernels))
    return times


def check_verify(checks: Checks, stdout: str, label: str) -> None:
    lines = stdout.splitlines()
    rows = [VERIFY_LINE.match(line) for line in lines]
    rows = [m.groups() for m in rows if m]
    checks.equal(f"{label}: verify lines", len(rows), len(VERIFY_TOLERANCES) * len(BETAS))
    checks.equal(f"{label}: verify checks per beta",
                 sorted(name for name, *_ in rows),
                 sorted(list(VERIFY_TOLERANCES) * len(BETAS)))
    for name, beta, status, defect in rows:
        tol = VERIFY_TOLERANCES.get(name, 0.0)
        checks.add(f"{label}: {name} beta={beta} PASS with defect {defect} <= {tol:g}",
                   status == "PASS" and float(defect) <= tol)
    checks.add(f"{label}: verify summary", lines[-1:] == ["all checks passed"])


def check_corrupt(checks: Checks, corrupt: dict) -> None:
    rows = [VERIFY_LINE.match(line) for line in corrupt["stdout"].splitlines()]
    embedding = [m.group(3) for m in rows if m and m.group(1) == "q-embedding amplitudes"]
    checks.add("corrupted angle: verify exits 1", corrupt["code"] == 1)
    checks.add("corrupted angle: embedding lines FAIL",
               bool(embedding) and all(s == "FAIL" for s in embedding))


def log_value(text: str, key: str) -> int:
    match = re.search(rf"^{re.escape(key)}: (\d+)$", text, re.M)
    return int(match.group(1)) if match else -1


def check_outputs(checks: Checks, workload, work: Path, result: dict) -> dict:
    """Check every output against the oracles; return the figures read."""
    nb, a, c, d = workload.flow
    want = oracle.closed_form_counts(nb, a, c, d, len(BETAS))
    n = want["num_qubits"]
    read = {name: (work / f"run_{name}.txt").read_text()
            for name in ("qsann_eng", "qsann_pic", "qsann_log", "flat_eng", "flat_pic", "flat_log")}
    gen = oracle.read_english(read["qsann_eng"])
    flat = oracle.read_english(read["flat_eng"])

    for failure in result["failures"]:
        checks.add(f"command failed: {failure}", False)
    for command, distinct in result["digests"].items():
        checks.equal(f"{command}: identical output on every run", distinct, 1)
    checks.equal("generate: qubits in log", log_value(read["qsann_log"], "Number of Qubits"), n)
    checks.equal("generate: ops in log",
                 log_value(read["qsann_log"], "Number of Elementary Operations"),
                 want["elementary_ops"])
    checks.equal("generate: english lines", gen["lines"], want["eng_lines"])
    checks.equal("generate: loop-weighted ops", gen["ops"], want["elementary_ops"])
    checks.equal("generate: picture lines", len(read["qsann_pic"].splitlines()), gen["lines"])
    checks.equal("generate: MP_Y lines", gen["mux_lines"], want["mux_lines"])
    checks.equal("generate: Walsh terms", gen["walsh_terms"], want["walsh_terms"])
    checks.equal("expand: ops in log",
                 log_value(read["flat_log"], "Number of Elementary Operations"),
                 want["expanded_ops"])
    checks.equal("expand: english lines", flat["lines"], want["expanded_lines"])
    checks.equal("expand: loop-weighted ops", flat["ops"], want["expanded_ops"])
    checks.equal("expand: no MP_Y left", flat["mux_lines"], 0)
    checks.equal("expand: picture lines", len(read["flat_pic"].splitlines()), flat["lines"])

    model = oracle.AnnealingModel(nb, a, c, [float(b) for b in BETAS])
    for name, ok in oracle.model_self_checks(model).items():
        checks.add(f"model: {name}", ok)
    expected = model.final_state(d)
    flat_state = oracle.read_amplitudes(result["outputs"]["simulate"], n)
    mux_state = oracle.read_amplitudes(result["outputs"]["simulate_mux"], n)
    fidelity = model.fidelity(flat_state)
    checks.add("simulate: norm 1 within 1e-9",
               abs(np.vdot(flat_state, flat_state).real - 1) <= STATE_TOL)
    checks.add("simulate: expanded and multiplexor-level states agree within 1e-9",
               np.abs(flat_state - mux_state).max() <= STATE_TOL)
    checks.add("simulate: state matches the dense model within 1e-9",
               np.abs(flat_state - expected).max() <= STATE_TOL)
    checks.add(f"simulate: fidelity {fidelity:.12f} matches the model within 1e-9",
               abs(fidelity - model.fidelity(expected)) <= STATE_TOL)

    check_verify(checks, result["outputs"]["verify"], "verify")
    check_corrupt(checks, result["corrupt"])
    return {"gen": gen, "flat": flat, "fidelity": fidelity,
            "elementary_ops": log_value(read["qsann_log"], "Number of Elementary Operations"),
            "expanded_ops": log_value(read["flat_log"], "Number of Elementary Operations")}


def end_to_end(result: dict, figures: dict, setup_s: float) -> dict:
    median = {name: statistics.median(t["reference"]) for name, t in result["timings"].items()}
    return {
        "setup_s": setup_s,
        "generate_s": median["generate"],
        "expand_s": median["expand"],
        "simulate_s": median["simulate"],
        "simulate_mux_s": median["simulate_mux"],
        "pipeline_s": median["pipeline"],
        "verify_s": median["verify"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "eng_lines": figures["gen"]["lines"],
        "elementary_ops": figures["elementary_ops"],
        "expanded_ops": figures["expanded_ops"],
        "fidelity": figures["fidelity"],
    }


# Per-layer metrics read off the spans: name -> (command, function, field).
SPAN_METRICS = {
    "generate.annealer.emit_full.self_s": ("generate", "annealer.emit_full", "self_s"),
    "generate.szegedy.emit_W.self_s": ("generate", "szegedy.emit_W", "self_s"),
    "generate.qembed.qembed_circuit.self_s": ("generate", "qembed.qembed_circuit", "self_s"),
    "generate.markov.metropolis.self_s": ("generate", "markov.metropolis", "self_s"),
    "generate.ir.count_elementary_ops.s": ("generate", "ir.count_elementary_ops", "s"),
    "generate.ir.write_english.s": ("generate", "ir.write_english", "s"),
    "generate.ir.write_english.bytes": ("generate", "ir.write_english", "bytes"),
    "generate.ir.write_picture.s": ("generate", "ir.write_picture", "s"),
    "generate.ir.write_picture.bytes": ("generate", "ir.write_picture", "bytes"),
    "generate.cli.io_s": ("generate", "cli.io", "s"),
    "expand.ir.parse_english.s": ("expand", "ir.parse_english", "s"),
    "expand.mux_expander.expand_circuit.s": ("expand", "mux_expander.expand_circuit", "s"),
    "expand.ir.count_elementary_ops.s": ("expand", "ir.count_elementary_ops", "s"),
    "expand.ir.write_english.s": ("expand", "ir.write_english", "s"),
    "expand.ir.write_picture.s": ("expand", "ir.write_picture", "s"),
    "simulate.ir.parse_english.s": ("simulate", "ir.parse_english", "s"),
    "simulate.sim.apply.s": ("simulate", "sim.apply", "s"),
    "simulate.sim.apply.gates": ("simulate", "sim.apply", "gates"),
    "simulate_mux.ir.parse_english.s": ("simulate_mux", "ir.parse_english", "s"),
    "simulate_mux.sim.apply.s": ("simulate_mux", "sim.apply", "s"),
    "verify.sim.to_matrix.s": ("verify", "sim.to_matrix", "s"),
    "verify.sim.to_matrix.gates": ("verify", "sim.to_matrix", "gates"),
    "verify.annealer.emit_R_tilde.s": ("verify", "annealer.emit_R_tilde", "s"),
    "verify.markov.spectral.s": ("verify", "markov.spectral", "s"),
    "verify.sim.eig_unitary.s": ("verify", "sim.eig_unitary", "s"),
    "verify.szegedy.emit_W.s": ("verify", "szegedy.emit_W", "s"),
    "verify.qembed.qembed_circuit.s": ("verify", "qembed.qembed_circuit", "s"),
    "verify.mux_expander.expand_circuit.s": ("verify", "mux_expander.expand_circuit", "s"),
}


def per_layer(trace: dict, figures: dict) -> dict:
    totals = trace["totals"]
    out = {name: totals.get(f"{command}|{function}", {}).get(field, 0)
           for name, (command, function, field) in SPAN_METRICS.items()}
    parse = totals.get("expand|ir.parse_english", {})
    out["expand.ir.parse_english.lines_per_s"] = parse.get("lines", 0) / parse.get("s", 1)
    out["expand.ir.out_lines"] = figures["flat"]["lines"]
    for key in ("mux_lines", "distinct_mux_lines", "walsh_terms"):
        out[f"expand.mux_expander.{key}"] = figures["gen"][key]
    for name in PEAK_CALLS:
        out[f"{name}.peak_mb"] = trace["peaks"].get(name, 0) / 2 ** 20
    out["simulate.sim.apply.us_per_gate"] = (
        1e6 * out["simulate.sim.apply.s"] / max(out["simulate.sim.apply.gates"], 1))
    out["simulate_mux.sim.apply.us_per_gate"] = (
        1e6 * out["simulate_mux.sim.apply.s"] / max(figures["gen"]["ops"], 1))
    out["simulate_mux.sim.apply.mux_gates"] = figures["gen"]["mux_ops"]
    out["trace.overhead_s"] = trace["traced_s"] - trace["plain_s"]
    return out


def environment(root: Path) -> dict:
    """Versions, cores and the git commit of the checkout ("unknown" when it
    is not the top of a git work tree)."""
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                               capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == root else "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes: the same code paths in a few seconds")
    args = parser.parse_args()
    began = time.perf_counter()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "qsagen" / "cli.py").is_file():
        print(f"Message: no qsagen sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    out_dir = root / ".bench_out"
    work = out_dir / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))

    # Interpreter starts before and after the worker, to span the run; the
    # traced run reports no setup_s.
    starts = 0 if args.trace else 1 if args.smoke else SETUP_STARTS // 2
    setup = measure_setup(env, work, starts)
    worker_json = work / "worker.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seconds),
             str(args.trace), str(int(args.smoke)), str(worker_json)],
            cwd=work, env=env, timeout=DEADLINE_S - (time.perf_counter() - began))
    except subprocess.TimeoutExpired:
        print("Message: the worker overran the run's deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"Message: the worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker_json.read_text())
    setup += measure_setup(env, work, starts + 1 if starts else 0)

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    checks = Checks()
    checks.add("qsagen imported from src/", Path(result["qsagen_file"]).is_relative_to(src))
    figures = check_outputs(checks, workload, work, result)
    if args.trace:
        metrics = per_layer(result["trace"], figures)
        (out_dir / "spans").mkdir(exist_ok=True)
        shutil.move(work / "spans.json", out_dir / "spans" / f"{tag}.json")
    else:
        metrics = end_to_end(result, figures, statistics.median(setup))
    shutil.rmtree(work)

    units = {m["name"]: m["unit"] for m in wanted}
    checks.equal("metrics are the ones BENCHMARK.json names", sorted(metrics), sorted(units))
    report = {
        "correct": not checks.failed,
        "attempted": result["invocations"] + len(checks.results),
        "failed": len(result["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = dict(report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, rounds=result["rounds"],
                  timings=result["timings"], setup_samples=setup,
                  checks=checks.results, environment=environment(root))
    (out_dir / "results").mkdir(exist_ok=True)
    (out_dir / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for name in checks.failed:
        print(f"Message: check failed: {name}", file=sys.stderr)
    env_info = record["environment"]
    print(f"# {tag}: rounds={result['rounds']} checks={len(checks.results)} "
          f"python={env_info['python']} numpy={env_info['numpy']} nproc={env_info['nproc']} "
          f"commit={env_info['commit']}")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
