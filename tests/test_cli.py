"""End-to-end CLI behavior: files, logs, diagnostics, exit codes."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsagen import annealer, checks, cli, sim
from qsagen.annealer import GeneratorConfig, PEParams
from qsagen.cli import main
from qsagen.ir import (Circuit, Control, Loop, MuxControl, Opcode, count_elementary_ops, had2,
                       mp_y, parse_english, phas, write_english)
from qsagen.markov import AnnealingSchedule, boltzmann, default_problem, metropolis, spectral
from qsagen.qembed import qembed_circuit
from qsagen.szegedy import WalkLayout, emit_W

from helpers import OVERFLOWING_LADDERS, eig_unitary, phases_match, random_reversible_chain

GEN_ARGS = ["generate", "--prefix", "demo", "--nb", "1", "--probe-bits", "2",
            "--pe-steps", "1", "--grover-depth", "1", "--num-betas", "3",
            "--delta-beta", "0.5"]

EXPECTED_LOG = """File Prefix: demo
Number of State Bits: 1
Number of Probe Bits: 2
Number of Phase Estimation Steps: 1
Grover Depth: 1
Upper Bound on Number of Neighbors: 3.0
Number of Betas: 3
Delta Beta Per Unit Time: 0.5
State Preparation: no
Conjugate Q: no
Number of Qubits: 4
Number of Elementary Operations: 284
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_generate_writes_file_triple(workdir, capsys):
    assert main(GEN_ARGS) == 0
    out = capsys.readouterr().out
    assert "Number of Qubits: 4" in out
    log = (workdir / "demo_qsann_log.txt").read_text()
    assert log == EXPECTED_LOG
    eng = (workdir / "demo_qsann_eng.txt").read_text()
    pic = (workdir / "demo_qsann_pic.txt").read_text()
    assert len(eng.splitlines()) == len(pic.splitlines())
    circuit = parse_english(eng, num_qubits=4)
    assert write_english(circuit) == eng
    assert count_elementary_ops(circuit) == 284


def test_generate_is_deterministic(workdir):
    assert main(GEN_ARGS) == 0
    first = [(workdir / f"demo_qsann_{s}.txt").read_bytes()
             for s in ("log", "eng", "pic")]
    assert main(GEN_ARGS) == 0
    second = [(workdir / f"demo_qsann_{s}.txt").read_bytes()
              for s in ("log", "eng", "pic")]
    assert first == second


def test_generate_qubit_count_formula(workdir, capsys):
    args = ["generate", "--prefix", "wide", "--nb", "3", "--probe-bits", "2",
            "--pe-steps", "4", "--grover-depth", "1", "--num-betas", "2",
            "--delta-beta", "0.25"]
    assert main(args) == 0
    capsys.readouterr()
    assert "Number of Qubits: 14\n" in (workdir / "wide_qsann_log.txt").read_text()
    eng = (workdir / "wide_qsann_eng.txt").read_text()
    circuit = parse_english(eng, num_qubits=14)
    assert write_english(circuit) == eng  # 32-angle multiplexor lines round-trip


@pytest.mark.parametrize("override,message", [
    (("--num-betas", "1"), "Number of Betas must be >= 2"),
    (("--delta-beta", "0"), "Delta Beta Per Unit Time must be > 0"),
    (("--delta-beta", "-1"), "Delta Beta Per Unit Time must be > 0"),
    (("--up-bd-neig", "1"), "below the maximum neighbor count"),
    (("--nb", "9"), "Number of State Bits"),
    (("--grover-depth", "0"), "Grover Depth must be >= 1"),
    (("--delta-beta", "nan"), "delta_beta must be finite and positive, got nan"),
    (("--delta-beta", "inf"), "delta_beta must be finite and positive, got inf"),
    (("--delta-beta", "1e308"), "the last beta, 2 * 1e+308, overflows"),
    (("--up-bd-neig", "nan"), "up_bd_neig must be finite, got nan"),
    (("--up-bd-neig", "inf"), "up_bd_neig must be finite, got inf"),
    (("--probe-bits", "0"), "probe_bits must be >= 1, got 0"),
    (("--pe-steps", "0"), "pe_steps must be >= 1, got 0"),
])
def test_generate_rejects_bad_inputs(workdir, capsys, override, message):
    args = list(GEN_ARGS)
    flag = override[0]
    where = args.index(flag) if flag in args else None
    if where is not None:
        args[where + 1] = override[1]
    else:
        args += list(override)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("Message:")
    assert message in err


def test_generate_prep_and_conjugate_flags(workdir, capsys):
    args = GEN_ARGS + ["--prep", "--conjugate-q"]
    assert main(args) == 0
    capsys.readouterr()
    log = (workdir / "demo_qsann_log.txt").read_text()
    assert "State Preparation: yes" in log
    assert "Conjugate Q: yes" in log
    eng = (workdir / "demo_qsann_eng.txt").read_text()
    assert eng.startswith("HAD2  AT  1\n")
    assert "PHAS -60.0 IF" in eng


def test_expand_roundtrip(workdir, capsys):
    assert main(GEN_ARGS) == 0
    assert main(["expand", "--in-prefix", "demo_qsann",
                 "--out-prefix", "flat"]) == 0
    capsys.readouterr()
    log = (workdir / "flat_log.txt").read_text()
    assert log.startswith("Prefix for Input Files: demo_qsann\n"
                          "Prefix for Output Files: flat\n"
                          "Compilation Mode: Exact SEO\n")
    eng = (workdir / "flat_eng.txt").read_text()
    assert "MP_Y" not in eng
    before = parse_english((workdir / "demo_qsann_eng.txt").read_text(), num_qubits=4)
    after = parse_english(eng, num_qubits=4)
    diff = np.abs(sim.to_matrix(after) - sim.to_matrix(before)).max()
    assert diff < 1e-9


# Three generate -> expand flows: depth 2 with --prep/--conjugate-q, LOOPs of
# 2 and 4 repetitions, and depth 3 of the conjugate recursion with two
# phase-estimation blocks (13,496 lines).  Their eighteen files are pinned whole.
GOLDEN_FLOWS = {
    "g1": ["--nb", "1", "--probe-bits", "2", "--pe-steps", "1", "--grover-depth", "2",
           "--num-betas", "3", "--delta-beta", "0.5", "--prep", "--conjugate-q"],
    "g2": ["--nb", "2", "--probe-bits", "3", "--pe-steps", "1", "--grover-depth", "1",
           "--num-betas", "2", "--delta-beta", "0.5"],
    "g3": ["--nb", "2", "--probe-bits", "2", "--pe-steps", "2", "--grover-depth", "3",
           "--num-betas", "4", "--delta-beta", "0.5", "--prep", "--conjugate-q"],
    # multiplexors with 4-7 controls, where the order of the ladder sums shows
    "g4": ["--nb", "4", "--probe-bits", "2", "--pe-steps", "1", "--grover-depth", "1",
           "--num-betas", "2", "--delta-beta", "0.5"],
}
GOLDEN_SHA256 = {
    "g1_qsann_log.txt": "c404b4eaaf9b863f65e7c8084fbf8d165cb0137c3d8d52188b7044cd9ce2f299",
    "g1_qsann_eng.txt": "544ba12fe30d7578e87f2ee905dfa5498d7e7fe8b9b95b76c3094346e0fa4edb",
    "g1_qsann_pic.txt": "5381dc0073add7aff3aaa9b6d200fca1858fbbc1690c417c6d443c20015afa2f",
    "g1_flat_log.txt": "47d6057e594a824b75f5f8de4311e511cab5f9fc28cd7653b3de37ac3fdd531c",
    "g1_flat_eng.txt": "d98137fb2d68ac1e6e999e266419c95e01fd323379aaf8b4d2604a4598ec83ac",
    "g1_flat_pic.txt": "0d6dbfbf526efb89b80144ea5ddb8706a2e0b29eadcfe80bba2e1c8e6184d001",
    "g2_qsann_log.txt": "8f991ee91c6399d079e2878c19c34b459f1302f98d8c1057f7b22318a60ec9ca",
    "g2_qsann_eng.txt": "95577bfd79aed38874fad667fc7efd8e4031e90dace0055469f157e8606f7cde",
    "g2_qsann_pic.txt": "e9bc87ab9b530e0b7e55948f6f03276052880e25f325fefee2fa9b8bf0c21580",
    "g2_flat_log.txt": "4beaa82023890cb11eabd9e2e039500201577d44043bc1f2572a4cfd7badee32",
    "g2_flat_eng.txt": "212ca5314b11477eb758b259f3b7542462e4927c1057d7e2977d278d398c6904",
    "g2_flat_pic.txt": "292c0e07faca1a2834b180f7041931237d10eb817cab67b07d9cb0723d690544",
    "g3_qsann_log.txt": "8a82eadba888e51d0feb6a05143551694174af1315078a23e0463f307b4b1a3b",
    "g3_qsann_eng.txt": "65ccfd14c0a35d49aa87b0c0def92723fe766439a79055357d5bb53412d8fd1a",
    "g3_qsann_pic.txt": "c05b9f9f308b710fe5644bd8c6132c552600ffc862a072a14a6d2cfa279f3010",
    "g3_flat_log.txt": "7a6676939275d4c7587b7bc3adcbe0337da24ab4e8f2ab3533308822bf48f7e3",
    "g3_flat_eng.txt": "e60cfa7e2e0f26191657e6f1ed491c574ffdfaaa0fda1c32c4a7edc9e83e3bb4",
    "g3_flat_pic.txt": "f9fbe36344c8f127716001b07d7e9bdf8aec5a6c3329c89b40a225ff755160fb",
    "g4_qsann_log.txt": "291d10aa81bb43a1324ef10a7252fedfbce3ac6217b862c37437a4e915c6a154",
    "g4_qsann_eng.txt": "62984b4acaf68c52778206f661b96ed456dc01c30681d11dcf7b06ff25c9f8d8",
    "g4_qsann_pic.txt": "ecc374392543def9a8081fa97763f9c2ddeb75623c41837f4d5e959b9e5ad762",
    "g4_flat_log.txt": "4eb22eda5d0dcf38c37036167601c9a6dfe983e99569eeec18faf8b578c75415",
    "g4_flat_eng.txt": "45db5efb25be4af58009b2f8384f62dbfd27db713143819e949bc3ff8e1a59ad",
    "g4_flat_pic.txt": "e23a6417b4bd65b3e2a5a740f70178a7dd813d71030d843601efc276a355b3c8",
}


def test_generate_and_expand_files_are_byte_golden(workdir, capsys):
    for prefix, flags in GOLDEN_FLOWS.items():
        assert main(["generate", "--prefix", prefix] + flags) == 0
        assert main(["expand", "--in-prefix", f"{prefix}_qsann",
                     "--out-prefix", f"{prefix}_flat"]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# nb 6: embedding stages sum up to 32 entries of a column, where numpy adds
# in pairwise blocks of 8 (the g4 stage sums have at most 8 terms).
GOLDEN_NB6_FLAGS = ["--nb", "6", "--probe-bits", "2", "--pe-steps", "1", "--grover-depth", "1",
                    "--num-betas", "3", "--delta-beta", "0.5", "--prep"]
GOLDEN_NB6_SHA256 = {
    "g6_qsann_log.txt": "d68f1fa8d624e598c8cf61c95e8bd53562a3a441320cdc57759c06f16dc10a2c",
    "g6_qsann_eng.txt": "9c4ae76907643789a5ef672badcb2f0da788b228cec41c7caf4b5ecb36dd3f20",
    "g6_qsann_pic.txt": "93de88621098da1e4cefab98809b124e0106122080be0b327a3fabfe61a3850e",
}


def test_generate_nb6_files_are_byte_golden(workdir, capsys):
    assert main(["generate", "--prefix", "g6"] + GOLDEN_NB6_FLAGS) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
           for name in GOLDEN_NB6_SHA256}
    assert got == GOLDEN_NB6_SHA256


def test_expand_rejects_oracular_mode(workdir, capsys):
    assert main(["expand", "--in-prefix", "x", "--out-prefix", "y",
                 "--mode", "oracular"]) == 2
    assert "not supported" in capsys.readouterr().err


def test_expand_warns_about_bit_precision(workdir, capsys):
    assert main(GEN_ARGS) == 0
    assert main(["expand", "--in-prefix", "demo_qsann", "--out-prefix", "p",
                 "--bit-precision", "8"]) == 0
    assert "ignored in exact mode" in capsys.readouterr().err


@pytest.mark.parametrize("angles", OVERFLOWING_LADDERS.values(), ids=OVERFLOWING_LADDERS.keys())
def test_expand_reports_a_multiplexor_whose_ladder_overflows(workdir, capsys, angles):
    (workdir / "huge_eng.txt").write_text(f"MP_Y  AT  0 IF 1(0 BY {angles[0]} {angles[1]}\n")
    (workdir / "huge_pic.txt").write_text("x\n")
    assert main(["expand", "--in-prefix", "huge", "--out-prefix", "huge_flat"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "Message: ROTY angles must be finite\n"
    assert captured.out == ""
    assert not list(workdir.glob("*_flat_*"))


def test_expand_missing_input_names_path(workdir, capsys):
    assert main(["expand", "--in-prefix", "nope", "--out-prefix", "y"]) == 1
    assert "nope_eng.txt" in capsys.readouterr().err


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize("argv,message", [
    (["generate", "--prefix", "missing/x"] + GEN_ARGS[3:],
     "cannot write missing/x_qsann_log.txt: No such file or directory"),
    (["expand", "--in-prefix", "demo_qsann", "--out-prefix", "missing/y"],
     "cannot write missing/y_log.txt: No such file or directory"),
    (["expand", "--in-prefix", "binary", "--out-prefix", "y"],
     f"cannot read binary_eng.txt: {NOT_UTF8}"),
    (["simulate", "--in-prefix", "binary"], f"cannot read binary_eng.txt: {NOT_UTF8}"),
    (["simulate", "--in-prefix", "nope"], "cannot read nope_eng.txt: No such file or directory"),
    # rejected before the file is read
    (["simulate", "--in-prefix", "nope", "--cutoff", "nan"], "cutoff must be finite, got nan"),
    (["simulate", "--in-prefix", "demo_qsann", "--cutoff", "inf"], "cutoff must be finite, got inf"),
    (["simulate", "--in-prefix", "demo_qsann", "--cutoff=-inf"], "cutoff must be finite, got -inf"),
    (["simulate", "--in-prefix", "nope", "--qubits", "0"], "qubits must be >= 1, got 0"),
    (["simulate", "--in-prefix", "nope", "--qubits=-3"], "qubits must be >= 1, got -3"),
])
def test_file_errors_end_in_message(workdir, capsys, argv, message):
    assert main(GEN_ARGS) == 0
    (workdir / "binary_eng.txt").write_bytes(b"\xff\n")
    (workdir / "binary_pic.txt").write_text("x\n")
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"Message: {message}\n"
    assert captured.out == ""


MUXES_AND_LOOPS = ("MP_Y  AT  2 IF 1(1 0(0 BY 20.0 -40.0 5.0 7.5\n"
                   "LOOP 1 REPS: 3\n"
                   "MP_Y  AT  1 IF 0(0 2T BY 20.0 -40.0\n"
                   "LOOP 3 REPS: 2\n"
                   "MP_Y  AT  2 IF 1(1 0(0 BY 20.0 -40.0 5.0 7.5\n"
                   "NEXT 3\n"
                   "NEXT 1\n"
                   "MP_Y  AT  1 IF 0(0 2T BY 20.0 -40.0\n")


def test_expand_reports_parse_error_line(workdir, capsys):
    (workdir / "bad_eng.txt").write_text("SIGQ AT 1\n")
    (workdir / "bad_pic.txt").write_text("X\n")
    assert main(["expand", "--in-prefix", "bad", "--out-prefix", "y"]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "SIGQ" in err
    assert not list(workdir.glob("y_*"))
    # The input line is named, not its place in the expanded output.
    (workdir / "late_eng.txt").write_text(MUXES_AND_LOOPS + "SIGX  AT  0  IF  1X\n")
    (workdir / "late_pic.txt").write_text("x\n" * 9)
    assert main(["expand", "--in-prefix", "late", "--out-prefix", "y"]) == 1
    assert capsys.readouterr().err == (
        "Message: line 9: bad control token (offending token '1X')\n")
    assert not list(workdir.glob("y_*"))
    (workdir / "short_eng.txt").write_text(MUXES_AND_LOOPS)
    (workdir / "short_pic.txt").write_text("x\n" * 7)
    assert main(["expand", "--in-prefix", "short", "--out-prefix", "y"]) == 1
    assert capsys.readouterr().err == (
        "Message: picture file has 7 line(s) but english file has 8\n")
    assert not list(workdir.glob("y_*"))
    (workdir / "short_pic.txt").write_text("x\n" * 8)
    assert main(["expand", "--in-prefix", "short", "--out-prefix", "y"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in workdir.glob("y_*")) == [
        "y_eng.txt", "y_log.txt", "y_pic.txt"]


def test_simulate_prints_amplitudes(workdir, capsys):
    (workdir / "h_eng.txt").write_text("HAD2  AT  0\n")
    assert main(["simulate", "--in-prefix", "h"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("|0>") and out[1].startswith("|1>")
    assert "+0.707106781187" in out[0]


def test_simulate_runs_above_the_matrix_cap(workdir, capsys):
    (workdir / "q13_eng.txt").write_text(
        "HAD2  AT  12\n"
        "LOOP 1 REPS: 2\n"
        "SIGX  AT  0  IF  12T\n"
        "ROTY  90.0  AT  0  IF  12T\n"
        "NEXT 1\n")
    assert main(["simulate", "--in-prefix", "q13"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"|{0:013b}>  +0.707106781187  +0.000000000000",
        f"|{1 << 12:013b}>  +0.707106781187  +0.000000000000"]


def test_simulate_into_a_closed_pipe_exits_1_without_a_traceback(workdir):
    """`simulate | head -1`: the reader closes the pipe after one line while
    4096 amplitudes, more than the pipe holds, are still to be written."""
    (workdir / "h12_eng.txt").write_text("".join(f"HAD2  AT  {b}\n" for b in range(12)))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "qsagen.cli", "simulate", "--in-prefix", "h12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == f"|{0:012b}>  +0.015625000000  +0.000000000000\n".encode()
    assert err == b""


def test_simulate_enforces_the_state_cap(workdir, capsys):
    (workdir / "q17_eng.txt").write_text("HAD2  AT  16\n")
    assert main(["simulate", "--in-prefix", "q17"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "Message: 17 qubits exceeds the simulation cap of 16\n"
    assert captured.out == ""


def test_verify_passes_at_defaults(workdir, capsys):
    assert main(["verify", "--nb", "1", "--probe-bits", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    for name in ("column sums", "detailed balance", "q-embedding amplitudes",
                 "walk spectrum", "mux expansion", "phase-reflection fixed point"):
        assert name in out


def test_verify_nb2_passes(workdir, capsys):
    assert main(["verify", "--nb", "2", "--beta", "0.0", "1.0"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_detects_corrupted_angle(workdir, capsys):
    assert main(["verify", "--nb", "1", "--corrupt-angle"]) == 1
    out = capsys.readouterr().out
    assert "walk spectrum" in out and "FAIL" in out


@pytest.mark.parametrize("nb", [3, 4])
def test_verify_passes_and_catches_a_corrupted_angle_above_nb2(workdir, capsys, nb):
    assert main(["verify", "--nb", str(nb), "--probe-bits", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert main(["verify", "--nb", str(nb), "--corrupt-angle"]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("q-embedding amplitudes", "walk spectrum"))]
    assert len(rows) == 4 and all("FAIL" in row for row in rows)


@pytest.mark.parametrize("nb", [1, 2])
@pytest.mark.parametrize("chain", ["0", "0.5", "1", "random-chain", "zero-eigenvalue"])
def test_walk_spectrum_check_agrees_with_the_dense_eigensolver(nb, chain):
    """The walk-spectrum defect, from W on 2*ns+3 columns, is rounding on
    the stock chains at betas 0, 0.5 and 1, on a random reversible chain and
    on the uniform chain, whose eigenvalues past the first are 0; each full
    W passes the dense eigensolver's phase match as well."""
    ns = 1 << nb
    if chain == "random-chain":
        m, pi = random_reversible_chain(np.random.default_rng(nb), ns)
    elif chain == "zero-eigenvalue":
        m, pi = np.full((ns, ns), 1 / ns), np.full(ns, 1 / ns)
    else:
        beta = float(chain)
        m, pi = metropolis(default_problem(nb), beta), boltzmann(default_problem(nb), beta)
    config = GeneratorConfig(default_problem(nb), PEParams(1, 1, 1), AnnealingSchedule(0.5, 1))
    defect = checks.walk_spectrum(checks.Point(config, m, pi))
    tol = next(tol for _, check, tol in checks.CHECKS if check is checks.walk_spectrum)
    assert defect <= 1e-12 and tol == 1e-8
    phis = spectral(m, pi).phis[1:]
    expected = [0.0] * (ns * ns - 2 * (ns - 1)) + list(2 * phis) + list(-2 * phis)
    assert phases_match(eig_unitary(sim.to_matrix(emit_W(m, WalkLayout(nb)))), expected)


def test_verify_passes_on_a_chain_with_a_zero_eigenvalue(workdir, capsys):
    """At nb=1, up_bd_neig=2 and beta=0 every entry of the chain is 1/2: its
    eigenvalues are 1 and 0, so W sends the second walk column to minus
    itself and the walk columns and their images span only 2 of the 3 busy
    dimensions."""
    assert metropolis(default_problem(1, 2.0), 0.0).tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert main(["verify", "--nb", "1", "--up-bd-neig", "2", "--beta", "0"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_expansion_reads_inputs_off_the_walk_columns(workdir, capsys, monkeypatch):
    """A phase on alpha_0 = 1 put before the expanded W leaves every walk
    column |x>_beta |0>_alpha alone, and still fails every expansion row."""
    expand_file = cli.mux_expander.expand_file

    def phase_first(eng_text, pic_text):
        log, english, picture = expand_file(eng_text, pic_text)
        circuit = parse_english(english)
        hidden = Circuit(circuit.num_qubits, (phas(10.0, (Control(0, True),)),) + circuit.body)
        return log, write_english(hidden), picture

    monkeypatch.setattr(cli.mux_expander, "expand_file", phase_first)
    assert main(["verify", "--nb", "2", "--probe-bits", "2"]) == 1
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == 12
    for row in rows:
        assert ("FAIL" if row.startswith("mux expansion") else "PASS") in row, row


def test_circle_defect_matches_phases_on_the_unit_circle():
    def defect(actual, expected):
        return checks.circle_defect(np.exp(1j * np.array(actual)), expected)
    assert defect([0.0, 1.0, -1.0], [1.0, 0.0, -1.0]) <= 1e-15
    assert defect([np.pi, 0.0], [-np.pi, 0.0]) <= 1e-15  # same point on the circle
    assert defect([0.0, 1.0], [0.0, 1.1]) == pytest.approx(2 * np.sin(0.05))
    assert defect([0.0], [0.0, 0.0]) == np.inf


def test_corrupt_angle_skips_loops_and_shifts_the_first_multiplexor():
    mux = mp_y(1, (MuxControl(0, 0),), (10.0, 20.0))
    loop = Loop(2, (had2(0), mp_y(1, (MuxControl(0, 0),), (1.0, 2.0))))
    circuit = Circuit(2, (loop, had2(1), mux, mux))
    out = checks.corrupted(circuit, True)
    corrupted = mp_y(1, (MuxControl(0, 0),), (15.0, 20.0))
    assert out == Circuit(2, (loop, had2(1), corrupted, mux))
    assert out.body[0] is loop and out.body[3] is mux
    assert checks.corrupted(circuit, False) is circuit


def test_corrupt_angle_shifts_a_multiplexor_at_index_zero():
    """The embedding cascade that `verify` corrupts starts with a
    multiplexor: that first gate is the one shifted, and only it."""
    circuit = qembed_circuit(metropolis(default_problem(2), 0.5))
    first = circuit.body[0]
    assert first.opcode is Opcode.MP_Y
    out = checks.corrupted(circuit, True)
    assert out.body[0] == first.with_angles((first.angles_deg[0] + 5.0,) + first.angles_deg[1:])
    assert out.body[0] != first
    assert len(out.body) == len(circuit.body)
    assert all(a is b for a, b in zip(out.body[1:], circuit.body[1:]))


def test_verify_fixed_point_fails_on_wrong_q_phase(workdir, capsys, monkeypatch):
    monkeypatch.setattr(checks, "emit_R_tilde", lambda w, config: annealer.emit_R_tilde(
        w, config, q_angle_deg=annealer.Q_ANGLE_DEG - 10.0))
    assert main(["verify", "--nb", "1", "--probe-bits", "2"]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("phase-reflection fixed point")]
    assert len(rows) == 2 and all("FAIL" in line for line in rows)


def test_verify_builds_each_walk_once(workdir, capsys, monkeypatch):
    """The fixed-point check reuses the W(beta) of the spectrum and
    expansion checks."""
    built = []
    for module in (checks, annealer):
        monkeypatch.setattr(module, "emit_W", lambda *args, emit=module.emit_W:
                            built.append(args[0]) or emit(*args))
    assert main(["verify", "--nb", "2", "--probe-bits", "2", "--beta", "0", "0.5", "1"]) == 0
    assert len(built) == 3
    assert "FAIL" not in capsys.readouterr().out


def test_verify_expansion_fails_on_a_wrong_ladder_angle(workdir, capsys, monkeypatch):
    """`verify` checks the english text that `expand` writes: one ladder
    rotation 1 degree off fails every expansion row and no other."""
    expand_file = cli.mux_expander.expand_file

    def shifted(eng_text, pic_text):
        log, english, picture = expand_file(eng_text, pic_text)
        lines = english.split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith("ROTY"))
        tokens = lines[i].split()
        tokens[1] = repr(float(tokens[1]) + 1.0)
        lines[i] = " ".join(tokens)
        return log, "\n".join(lines), picture

    monkeypatch.setattr(cli.mux_expander, "expand_file", shifted)
    assert main(["verify", "--nb", "1", "--probe-bits", "2"]) == 1
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == 12
    for row in rows:
        assert ("FAIL" if row.startswith("mux expansion") else "PASS") in row, row


@pytest.mark.parametrize("argv,message", [
    (["--probe-bits", "0"], "probe_bits must be >= 1, got 0"),
    (["--nb", "0"], "nb must be in 1..6, got 0"),
    (["--nb", "-1"], "nb must be in 1..6, got -1"),
    (["--up-bd-neig", "1"], "up_bd_neig = 1.0 is below the maximum neighbor count 2"),
    (["--up-bd-neig", "nan"], "up_bd_neig must be finite, got nan"),
    (["--beta", "0", "nan"], "beta must be finite and non-negative, got nan"),
    (["--beta", "inf"], "beta must be finite and non-negative, got inf"),
    (["--beta", "-0.5"], "beta must be finite and non-negative, got -0.5"),
])
def test_verify_rejects_bad_inputs(workdir, capsys, argv, message):
    assert main(["verify"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"Message: {message}\n"
    assert captured.out == ""


def test_verify_enforces_size_caps(workdir, capsys):
    assert main(["verify", "--nb", "7"]) == 1
    assert capsys.readouterr().err == "Message: nb must be in 1..6, got 7\n"
    assert main(["verify", "--nb", "2", "--probe-bits", "13"]) == 2
    assert "cap" in capsys.readouterr().err


def test_usage_error_exit_code(workdir):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--bogus"])
    assert info.value.code == 2


def test_write_in_slices_keeps_the_bytes(workdir, monkeypatch):
    text = "".join(f"LOOP {i} REPS: 2\nPHAS 1.5 IF  0T\nNEXT {i}\n" for i in range(500))
    written = []
    real_open = open

    def recording_open(*args, **kwargs):
        handle = real_open(*args, **kwargs)
        write = handle.write
        handle.write = lambda piece: written.append(len(piece)) or write(piece)
        return handle

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_WRITE_SLICE", 1000)
        patch.setattr("builtins.open", recording_open)
        cli._write("out.txt", text)
    assert Path("out.txt").read_bytes() == text.encode()
    assert max(written) == 1000 and sum(written) == len(text)
    cli._write("empty.txt", "")
    assert Path("empty.txt").read_bytes() == b""
