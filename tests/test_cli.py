"""End-to-end CLI checks (in-process main() invocations)."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eaqldpc
from eaqldpc import cli, formats, simulator
from eaqldpc.cli import MAX_INCIDENCE_CELLS, MAX_POINTS, main
from eaqldpc.designs import build_sts, develop_cyclic
from eaqldpc.geometry import design_counts
from eaqldpc.gf2 import BitMatrix


def child_env(**extra) -> dict:
    """The environment of a child process that imports this eaqldpc."""
    src = str(Path(eaqldpc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


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


def test_tables_manifest_records_rows(tmp_path, capsys):
    """``tables --out`` writes one manifest record per row: its label, the
    sources of its distance verdict and its seconds.  EG(2,8) is enumerated
    once, as Type I in table VIII, and Type II in table IX names the shared
    enumeration.  The CSVs equal the ones printed to stdout."""
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "tables", "VIII", "IX")
    assert code == 0 and "0 mismatches" in err
    manifest = json.loads((tmp_path / "table_VIII.csv.manifest.json").read_text())
    assert sorted(Path(p).name for p in manifest["outputs"]) == ["table_IX.csv", "table_VIII.csv"]
    rows = manifest["rows"]
    assert [r["table"] for r in rows] == ["VIII"] * 3 + ["IX"] * 8
    assert all(set(r) == {"table", "row", "distance_sources", "seconds"} for r in rows)
    assert all(r["seconds"] >= 0 for r in rows)
    by_row = {(r["table"], r["row"]): r["distance_sources"] for r in rows}
    assert by_row[("VIII", "EG(2,8)/I")][-1] == "enumeration:dual-macwilliams"
    assert by_row[("IX", "EG(2,8)/II")][-1] == (
        "enumeration:dual-macwilliams (shared from Type I through the checked polarity)")
    assert not any("enumeration" in s for s in by_row[("VIII", "EG(2,32)/I")])
    _, out, _ = run_cli(capsys, "tables", "VIII", "IX")
    assert out == (tmp_path / "table_VIII.csv").read_text() + (tmp_path / "table_IX.csv").read_text()


def test_tables_report_rows_by_distance_status(capsys):
    """Each table's stderr line counts its rows by d status; a table without
    a d column reads as before."""
    code, _, err = run_cli(capsys, "tables", "X", "III")
    assert code == 0
    summaries = [line for line in err.splitlines() if line.startswith("table ")]
    assert summaries[0].startswith("table X: 5 rows, 0 mismatches, d: 1 exact, 4 theorem-only (")
    assert summaries[1].startswith("table III: 10 rows, 0 mismatches (")


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


def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_geometry", exhausted)
    code, out, err = run_cli(capsys, "code", "distance", "--pg", "2", "4", "--type", "I")
    assert code == 1 and out == ""
    assert err == "error: out of memory; no result\n"


CAP = f"over the cap of {MAX_INCIDENCE_CELLS}"


@pytest.mark.parametrize("argv, message", [
    ("code params --pg 6 64 --type I",
     f"PG(6,64) has 81783270638348827151583166593 incidence cells (v*b), {CAP}"),
    ("code distance --pg 3 64 --type I", f"PG(3,64) has 4539865645185 incidence cells (v*b), {CAP}"),
    ("design build --ag 9 32",
     f"AG(9,32) has 43907402183345650587976476180434911232 incidence cells (v*b), {CAP}"),
    ("design build --sts 300001", "STS(300001) has v = 300001 points, over the cap of 4096"),
    ("design develop --v 30000001 --bases 0,1,3",
     "cyclic development has v = 30000001 points, over the cap of 4096"),
    ("sim --eg 1100 2 --type I --fm 0.1", f"EG(1100,2) has more than 2^1024 incidence cells (v*b), {CAP}"),
    ("design delete --pg 9 3 --spread-s 4 --count 1", f"PG(9,3) has 2144517693604 incidence cells (v*b), {CAP}"),
])
def test_oversized_builds_are_refused_before_any_work(capsys, monkeypatch, argv, message):
    """v*b of a geometry, v of an STS or a cyclic development: each over
    its cap exits 2 with one line naming the size and the cap, and nothing
    is built."""
    def built(*args, **kwargs):
        raise AssertionError("an oversized input reached a build")

    for name in ("build_geometry", "build_sts", "develop_cyclic"):
        monkeypatch.setattr(cli, name, built)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_size_caps_admit_the_table_geometries_and_skip_closed_forms(capsys, monkeypatch):
    v, b = design_counts("PG", 2, 64)[:2]
    assert 17_300_000 < v * b <= MAX_INCIDENCE_CELLS
    v, b = design_counts("AG", 3, 16)[:2]
    assert v * b <= MAX_INCIDENCE_CELLS
    asked = []  # the largest STS and development under the cap reach their builds
    monkeypatch.setattr(cli, "build_sts", lambda v: asked.append(v) or build_sts(7))
    monkeypatch.setattr(cli, "develop_cyclic", lambda v, bases: asked.append(v) or develop_cyclic(7, bases))
    assert run_cli(capsys, "design", "build", "--sts", "4095")[0] == 0
    assert run_cli(capsys, "design", "develop", "--v", "4096", "--bases", "0,1,3")[0] == 0
    assert asked == [4095, 4096]
    code, out, _ = run_cli(capsys, "code", "params", "--family", "--pg", "3", "64", "--type", "II")
    assert code == 0 and out.splitlines()[1].startswith("PG,II,3,64,17047617,16759616,")


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a run with workers > 1 imports the process pool."""
    env = child_env()
    probe = "import sys, eaqldpc.cli; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0 and run.stdout == "False\n", run.stderr


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "code", "params", "--type", "II")
    assert code == 2


# --- fuzzing: malformed input ends with exit 0, 1 or 2 and one line --------

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)
_small = st.integers(-3, 12).map(str)
_token = st.one_of(_small, st.sampled_from(["", "x", "1.5", "0x3", "-", "nan", "1e3", "#"]))


@st.composite
def _malformed_files(draw):
    """Design-like text (a header, blocks of distinct in-range points or of
    arbitrary tokens, a comment), an alist file where a design or base-block
    file is expected, or noise."""
    kind = draw(st.sampled_from(["design", "tokens", "alist", "noise"]))
    if kind == "alist":
        rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
        buf = io.StringIO()
        formats.write_alist(BitMatrix(rows, cols, bits), buf)
        return buf.getvalue()
    if kind == "noise":
        return draw(st.text(alphabet="0123456789 -#\nx.,", max_size=50))
    if kind == "design":
        v = draw(st.integers(-1, 9))
        block = st.lists(st.integers(0, max(v - 1, 0)), min_size=1, max_size=4, unique=True)
        blocks = [map(str, b) for b in draw(st.lists(block, max_size=12, unique_by=frozenset))]
        lines = [f"{v} {len(blocks)}"]
    else:
        blocks = draw(st.lists(st.lists(_token, max_size=4), max_size=12))
        lines = [f"{draw(_small)} {draw(_small)}"]
    lines += [" ".join(b) for b in blocks]
    lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines) + "\n"


def _assert_clean_exit(argv):
    """main(argv), argparse's exits included, ends with exit 0, 1 or 2, no
    traceback, and at most one stderr line on failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert err.count("\n") <= 1, (argv, err)


@FUZZ
@given(_malformed_files(), st.sampled_from(["verify", "params", "distance", "export-alist",
                                             "sim", "develop"]), st.sampled_from(["I", "II"]))
@example("3 1\n0 1\n", "params", "II")
@example("3 1\n0 1\n", "distance", "II")
@example("2 1\n0 1\n", "params", "II")
@example("2 1\n0 1\n", "distance", "II")
@example("2 1\n0 1\n", "sim", "I")
def test_fuzz_malformed_input_files(tmp_path_factory, text, command, code_type):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_text(text)
    f = str(path)
    argv = {
        "verify": ["design", "verify", f, "--mu", "3"],
        "params": ["code", "params", "--design", f, "--type", code_type],
        "distance": ["code", "distance", "--design", f, "--type", code_type],
        "export-alist": ["code", "export-alist", "--design", f, "--type", code_type],
        "sim": ["sim", "--design", f, "--type", code_type, "--fm", "0.05", "--trials", "8"],
        "develop": ["design", "develop", "--base-file", f],
    }[command]
    _assert_clean_exit(argv)


@FUZZ
@given(st.text(alphabet="0123456789,;- x", max_size=20), st.integers(-3, 15))
def test_fuzz_bases_strings(bases, v):
    _assert_clean_exit(["design", "develop", "--v", str(v), f"--bases={bases}"])


@FUZZ
@given(st.lists(st.one_of(st.floats(0.0, 0.3).map(repr), st.floats().map(repr), _token),
                max_size=4).map(",".join))
def test_fuzz_fm_lists(fm):
    _assert_clean_exit(["sim", "--pg", "2", "2", "--type", "II", f"--fm={fm}", "--trials", "4"])


# --- fuzzing sizes: a child process under a memory limit -----------------

CHILD_MEMORY = 2 << 30  # address-space limit of each fuzzed CLI process
SIZE_FUZZ = settings(max_examples=15, deadline=None, derandomize=True)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def _assert_clean_child_exit(argv) -> tuple[int, str]:
    """The CLI run in a child process with at most ``CHILD_MEMORY`` of address
    space and one BLAS thread ends with exit 0, 1 or 2, no traceback, and
    one stderr line on failure; (exit code, stderr)."""
    run = subprocess.run([sys.executable, "-m", "eaqldpc.cli", *argv], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, timeout=300, preexec_fn=_limit_memory,
                         env=child_env(OPENBLAS_NUM_THREADS="1"))
    assert run.returncode in (0, 1, 2), (argv, run.returncode, run.stderr[-2000:])
    assert "Traceback" not in run.stderr, (argv, run.stderr[-2000:])
    if run.returncode:
        assert run.stderr.count("\n") == 1, (argv, run.stderr)
    return run.returncode, run.stderr


def _cells(kind, m, q) -> int:
    v, b = design_counts(kind, m, q)[:2]
    return v * b


def _largest_q(kind, m) -> int:
    """The largest q whose geometry of dimension m has at most
    ``MAX_INCIDENCE_CELLS`` cells, or 1 when even q = 2 has more."""
    lo, hi = 1, 2
    while _cells(kind, m, hi) <= MAX_INCIDENCE_CELLS:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _cells(kind, m, mid) <= MAX_INCIDENCE_CELLS else (lo, mid)
    return lo


@st.composite
def _geometry_sizes(draw):
    """(kind, m, q): q within a few of the cap for m in 2..12, or m and q
    drawn wide, small and huge and out of range."""
    kind = draw(st.sampled_from(["PG", "AG", "EG"]))
    if draw(st.booleans()):
        m = draw(st.integers(2, 12))
        return kind, m, max(_largest_q(kind, m) + draw(st.integers(-3, 3)), 0)
    m = draw(st.one_of(st.integers(-1, 12), st.integers(13, 1 << 12)))
    return kind, m, draw(st.one_of(st.integers(-1, 300), st.integers(300, 1 << 70)))


@SIZE_FUZZ
@given(_geometry_sizes())
@example(("AG", 10, 2))  # the largest m for q = 2 under the cap
@example(("AG", 11, 2))
@example(("EG", 1100, 2))  # past 2^1024 points
@example(("PG", 1, 2**61 - 1))  # below the cap check, refused by the build
def test_fuzz_geometry_sizes_in_a_memory_limited_child(size):
    """A geometry over the cap is refused with exit 2; every other ends
    cleanly within the memory limit."""
    kind, m, q = size
    code, err = _assert_clean_child_exit(["design", "build", f"--{kind.lower()}", str(m), str(q)])
    if m >= 2 and q >= 2 and _cells(kind, m, q) > MAX_INCIDENCE_CELLS:
        assert code == 2 and "over the cap" in err, (size, err)


_points = st.one_of(st.integers(-2, 40), st.integers(MAX_POINTS - 3, MAX_POINTS + 6),
                    st.integers(MAX_POINTS, 1 << 70))


@SIZE_FUZZ
@given(st.sampled_from(["sts", "develop"]), _points)
@example("sts", MAX_POINTS - 1)  # the largest STS under the cap, 2.8 M blocks
@example("sts", MAX_POINTS + 1)
@example("develop", MAX_POINTS)
def test_fuzz_point_counts_in_a_memory_limited_child(command, v):
    """An STS or cyclic development on more than ``MAX_POINTS`` points is
    refused with exit 2; every other ends cleanly within the memory limit."""
    argv = (["design", "build", "--sts", str(v)] if command == "sts"
            else ["design", "develop", "--v", str(v), "--bases", "0,1,3"])
    code, err = _assert_clean_child_exit(argv)
    if v > MAX_POINTS:
        assert code == 2 and "over the cap" in err, (argv, err)


def test_empty_code_exits_2_with_one_line(tmp_path, capsys):
    """A design with no incidences has no Tanner graph edges to decode."""
    path = tmp_path / "empty.design"
    path.write_text("3 0\n")
    code, out, err = run_cli(capsys, "sim", "--design", str(path), "--type", "I",
                             "--fm", "0.05", "--trials", "8")
    assert code == 2 and out == ""
    assert err == "error: zero parity-check matrix\n"


def test_rejected_code_exits_2_without_a_degeneracy_warning(tmp_path, capsys):
    """One block on two points gives c = 0: only the error line is printed,
    not the k <= 0 warning before it."""
    path = tmp_path / "pair.design"
    path.write_text("2 1\n0 1\n")
    code, out, err = run_cli(capsys, "code", "params", "--design", str(path), "--type", "I")
    assert code == 2 and out == ""
    assert err == "error: c out of range [1, rank]\n"


def test_develop_blocks_of_one_point_fail_verification(capsys):
    code, out, err = run_cli(capsys, "design", "develop", "--v", "1", "--bases", "0")
    assert code == 1 and out == ""
    assert err == "verification FAILED: a Steiner system S(2, mu, v) needs mu >= 2, got 1\n"


def trivial_design(tmp_path):
    """One block of two points: as a Type II code, H is 3x1 of rank 1, so
    the classical code holds only the zero word and k = 0."""
    path = tmp_path / "trivial.design"
    path.write_text("3 1\n0 1\n")
    return path


def test_trivial_code_distance_is_exact_zero(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "code", "distance", "--design", str(trivial_design(tmp_path)),
                           "--type", "II")
    assert code == 0
    assert "d status=exact lower=0 upper=0 certified=True" in out
    assert "source: enumeration:trivial-code" in out


def test_tables_warning_names_its_table_and_row():
    """The k <= 0 warning raised while table XII builds its PG(2,2) Type II
    row is printed once, naming that table and row."""
    env = child_env()
    run = subprocess.run([sys.executable, "-m", "eaqldpc.cli", "tables", "XII"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0
    warned = [line for line in run.stderr.splitlines() if line.startswith("warning:")]
    assert warned == ["warning: table XII [pg-typeII-even-q (2,2)]: "
                      "degenerate code: k = 0 <= 0 (n=7, rank=4, c=1)"]


def test_library_warning_is_one_stderr_line(tmp_path):
    """Run as a separate process: pytest would capture the warning in-process."""
    env = child_env()
    design = str(trivial_design(tmp_path))
    for sub in ("distance", "params"):
        run = subprocess.run(
            [sys.executable, "-m", "eaqldpc.cli", "code", sub, "--design", design, "--type", "II"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0
        assert run.stderr == "warning: degenerate code: k = 0 <= 0 (n=1, rank=1, c=1)\n"
