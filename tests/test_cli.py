"""End-to-end CLI checks (in-process main() invocations)."""

import io
import json
import os
import sys

from eaqldpc import cli, formats, simulator
from eaqldpc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_build_pg32(tmp_path, capsys):
    out = tmp_path / "pg32.design"
    code, _, err = run_cli(capsys, "--out", str(out), "design", "build", "--pg", "3", "2")
    assert code == 0
    with open(out) as fh:
        S = formats.read_design(fh)
    assert (S.v, S.b) == (15, 35)
    assert "verified: S(2,3,15)" in err
    manifest = json.loads((tmp_path / "pg32.design.manifest.json").read_text())
    assert "outputs" in manifest and manifest["outputs"]


def test_design_build_sts9(capsys):
    code, out, err = run_cli(capsys, "design", "build", "--sts", "9")
    assert code == 0
    S = formats.read_design(io.StringIO(out))
    assert S.b == 12


def test_design_develop_fano(capsys):
    code, out, err = run_cli(capsys, "design", "develop", "--v", "7", "--bases", "0,1,3")
    assert code == 0
    S = formats.read_design(io.StringIO(out))
    assert (S.v, S.b) == (7, 7)


def test_design_develop_failure_exit_code(capsys):
    # {0,1,2} does not develop into a Steiner system mod 7
    code, _, err = run_cli(capsys, "design", "develop", "--v", "7", "--bases", "0,1,2")
    assert code == 1
    assert "FAILED" in err


def test_design_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "sts13.design"
    assert run_cli(capsys, "--out", str(out), "design", "build", "--sts", "13")[0] == 0
    code, out_s, _ = run_cli(capsys, "design", "verify", str(out), "--mu", "3")
    assert code == 0 and "OK: S(2,3,13)" in out_s


def test_design_verify_detects_damage(tmp_path, capsys):
    path = tmp_path / "bad.design"
    assert run_cli(capsys, "--out", str(path), "design", "build", "--sts", "9")[0] == 0
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split()
    butchered = [f"{header[0]} {int(header[1]) - 1}"] + lines[2:]  # drop one block
    path.write_text("\n".join(butchered) + "\n")
    code, _, err = run_cli(capsys, "design", "verify", str(path), "--mu", "3")
    assert code == 1


def test_design_delete(capsys):
    code, out, err = run_cli(
        capsys, "design", "delete", "--pg", "5", "2", "--spread-s", "2", "--count", "1"
    )
    assert code == 0
    S = formats.read_design(io.StringIO(out))
    assert S.b == 644


def test_code_params_pg32(capsys):
    code, out, _ = run_cli(capsys, "code", "params", "--pg", "3", "2", "--type", "II")
    assert code == 0
    header, row = out.strip().splitlines()
    cells = row.split(",")
    rec = dict(zip(header.split(","), cells))
    assert (rec["n"], rec["k"], rec["c"]) == ("35", "14", "1")
    assert rec["d_status"] == "exact" and rec["d_lower"] == "4" and rec["d_upper"] == "4"


def test_code_params_family(capsys):
    code, out, _ = run_cli(
        capsys, "code", "params", "--ag", "2", "16", "--type", "I", "--family"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    header = out.strip().splitlines()[0].split(",")
    rec = dict(zip(header, row))
    assert (rec["n"], rec["k"], rec["c"]) == ("256", "110", "16")


def test_code_export_alist_fano(capsys):
    code, out, err = run_cli(capsys, "code", "export-alist", "--pg", "2", "2", "--type", "II")
    assert code == 0
    back = formats.read_alist(io.StringIO(out))
    assert (back.rows, back.cols) == (7, 7)


def test_tables_xiii(capsys):
    code, out, err = run_cli(capsys, "tables", "XIII")
    assert code == 0
    assert "0 mismatches" in err
    assert "table,row" in out


def test_tables_unknown(capsys):
    code, _, err = run_cli(capsys, "tables", "XIV")
    assert code == 2


def test_sim_zero_fm(capsys):
    code, out, err = run_cli(
        capsys, "sim", "--pg", "3", "2", "--type", "II", "--fm", "0", "--trials", "50"
    )
    assert code == 0
    data_row = out.strip().splitlines()[-1]
    assert data_row.startswith("0.0,50,0,")


def test_sim_smoke_regression(capsys):
    """Fixed-seed smoke run; the error count is a frozen regression value."""
    code, out, err = run_cli(
        capsys,
        "--seed", "7",
        "sim", "--pg", "3", "2", "--type", "II",
        "--fm", "0.03", "--trials", "400",
    )
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    errors = int(row[2])
    assert errors == 67
    # reproducibility: same seed, same count
    code2, out2, _ = run_cli(
        capsys,
        "--seed", "7",
        "sim", "--pg", "3", "2", "--type", "II",
        "--fm", "0.03", "--trials", "400",
    )
    assert out2 == out


def test_sim_rejects_bad_fm(capsys):
    code, _, err = run_cli(
        capsys, "sim", "--pg", "3", "2", "--type", "II", "--fm", "1.2", "--trials", "10"
    )
    assert code == 2


def test_sim_rejects_bad_fm_before_simulating(capsys):
    """A bad point anywhere in the sweep stops the run before the first
    point: exit 2, one line on stderr, no traceback."""
    for fm in ("0.01,1.2", "nan"):
        code, out, err = run_cli(
            capsys, "sim", "--pg", "3", "2", "--type", "II", "--fm", fm, "--trials", "10"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: invalid f_m")
        assert "Traceback" not in err


def test_sim_rejects_bad_options_before_simulating(capsys):
    """--max-iter below 1 (which would count every nonzero syndrome as a
    block error) and a prior outside (0, 0.5) exit 2 with one line."""
    for opts, message in ((("--max-iter", "0"), "error: max_iter >= 1"),
                          (("--max-iter", "-2"), "error: max_iter >= 1"),
                          (("--prior", "0.5"), "error: prior must be in (0, 0.5)"),
                          (("--prior", "0"), "error: prior must be in (0, 0.5)")):
        code, out, err = run_cli(
            capsys, "sim", "--ag", "2", "4", "--type", "I", "--fm", "0.02",
            "--trials", "50", *opts
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(message)


def test_sim_rejects_negative_threads_before_simulating(capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "estimate_bler", lambda *a, **k: runs.append(a))
    code, out, err = run_cli(capsys, "sim", "--ag", "2", "4", "--type", "I", "--fm", "0.02",
                             "--trials", "50", "--threads", "-3")
    assert code == 2 and out == "" and runs == []
    assert err == "error: workers >= 0 required, got -3\n"


def _dying_worker_init(*args):
    os._exit(3)


def test_sim_dead_worker_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(simulator, "_worker_init", _dying_worker_init)
    code, out, err = run_cli(capsys, "sim", "--ag", "2", "4", "--type", "I", "--fm", "0.02",
                             "--trials", "200", "--threads", "2")
    assert code == 1 and out == ""
    assert err == "error: a worker process died; no result\n"


def test_interrupt_exits_1_with_one_line(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "estimate_bler", interrupted)
    code, out, err = run_cli(capsys, "sim", "--ag", "2", "4", "--type", "I", "--fm", "0.02",
                             "--trials", "50")
    assert code == 1 and out == ""
    assert err == "interrupted; no result\n"


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "code", "params", "--type", "II")
    assert code == 2
