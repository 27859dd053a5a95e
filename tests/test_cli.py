"""End-to-end CLI behavior: files, logs, diagnostics, exit codes."""
import hashlib

import numpy as np
import pytest

from qsagen import annealer, cli, sim
from qsagen.cli import main
from qsagen.ir import count_elementary_ops, parse_english, write_english

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


# Two small generate -> expand flows: depth 2 with --prep/--conjugate-q, and
# LOOPs of 2 and 4 repetitions.  Their twelve files are pinned whole.
GOLDEN_FLOWS = {
    "g1": ["--nb", "1", "--probe-bits", "2", "--pe-steps", "1", "--grover-depth", "2",
           "--num-betas", "3", "--delta-beta", "0.5", "--prep", "--conjugate-q"],
    "g2": ["--nb", "2", "--probe-bits", "3", "--pe-steps", "1", "--grover-depth", "1",
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


def test_expand_rejects_oracular_mode(workdir, capsys):
    assert main(["expand", "--in-prefix", "x", "--out-prefix", "y",
                 "--mode", "oracular"]) == 2
    assert "not supported" in capsys.readouterr().err


def test_expand_warns_about_bit_precision(workdir, capsys):
    assert main(GEN_ARGS) == 0
    assert main(["expand", "--in-prefix", "demo_qsann", "--out-prefix", "p",
                 "--bit-precision", "8"]) == 0
    assert "ignored in exact mode" in capsys.readouterr().err


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


def test_verify_fixed_point_fails_on_wrong_q_phase(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "emit_R_tilde", lambda beta, config: annealer.emit_R_tilde(
        beta, config, q_angle_deg=annealer.Q_ANGLE_DEG - 10.0))
    assert main(["verify", "--nb", "1", "--probe-bits", "2"]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("phase-reflection fixed point")]
    assert len(rows) == 2 and all("FAIL" in line for line in rows)


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
    assert main(["verify", "--nb", "3"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["verify", "--nb", "2", "--probe-bits", "3",
                 "--pe-steps", "3"]) == 2
    assert "cap" in capsys.readouterr().err


def test_usage_error_exit_code(workdir):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--bogus"])
    assert info.value.code == 2
