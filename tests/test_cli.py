"""Command-line behavior: records, files, exit codes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import twopack
from twopack.cli import CSV_HEADER, main
from twopack.graphio import write_metis

from conftest import cycle_graph, path_graph, star_graph


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(write_metis(path_graph(4)))
    return path


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_p4_defaults(self, capsys, p4_file, tmp_path):
        out_file = tmp_path / "solution.txt"
        code, out, _ = run_cli(
            capsys, "--input", str(p4_file), "--output", str(out_file)
        )
        assert code == 0
        fields = dict(
            line.split(None, 1) for line in out.strip().splitlines() if line.strip()
        )
        assert fields["size"] == "2"
        assert fields["status"] == "ok"
        assert fields["offset"] == "2"
        assert out_file.read_text() == "1\n4\n"

    def test_csv_stats(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "--input", str(p4_file), "--stats", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert row[0] == "p4"
        assert row[1] == "elaborated"
        assert row[2] == "exact"
        assert row[4] == "2"
        assert row[-1] == "ok"

    def test_heuristic_mode(self, capsys, p4_file):
        code, out, _ = run_cli(
            capsys, "--input", str(p4_file), "--solver", "heuristic", "--stats", "csv"
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "heuristic"

    def test_verify_flag(self, capsys, p4_file):
        code, _, _ = run_cli(capsys, "--input", str(p4_file), "--verify")
        assert code == 0

    def test_edgelist_input(self, capsys, tmp_path):
        path = tmp_path / "p4.edges"
        path.write_text("0 1\n1 2\n2 3\n")
        out_file = tmp_path / "sol.txt"
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--format", "edgelist",
            "--output", str(out_file), "--stats", "csv",
        )
        assert code == 0
        # edge-list output follows the input base (0 here)
        assert out_file.read_text() == "0\n3\n"


class TestKernelOnly:
    def test_p5_two_pack_ratios(self, capsys, tmp_path):
        path = tmp_path / "p5.graph"
        path.write_text(write_metis(path_graph(5)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack", "--kernel-only",
        )
        assert code == 0
        assert "100.0" in out
        assert "175.0" in out

    def test_csv_kernel_record(self, capsys, tmp_path):
        path = tmp_path / "c6.graph"
        path.write_text(write_metis(cycle_graph(6)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--reductions", "elaborated",
            "--kernel-only", "--stats", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("instance,variant,n,m,")
        cells = row.split(",")
        assert cells[0] == "c6" and cells[2] == "6"


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 2\n2\n1\n2\n")
        code, _, err = run_cli(capsys, "--input", str(path))
        assert code == 1
        assert "line 4" in err

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--input", str(tmp_path / "nope.graph"))
        assert code == 1
        assert "cannot read" in err

    def test_non_utf8_input_is_one(self, capsys, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run_cli(capsys, "--input", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and out == ""

    @pytest.mark.parametrize("edge_cap", [None, "5"])
    def test_unwritable_output_is_one(self, capsys, tmp_path, edge_cap):
        path = tmp_path / "star.graph"
        path.write_text(write_metis(star_graph(5, center=0)))
        out_file = tmp_path / "missing" / "sol.txt"
        cap = ["--edge-cap", edge_cap] if edge_cap else []
        code, out, err = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack", "--stats", "csv",
            "--output", str(out_file), *cap,
        )
        assert code == 1
        assert err.startswith(f"error: cannot write {out_file}: ")
        status = out.strip().splitlines()[1].split(",")[-1]
        assert status == ("memcap" if edge_cap else "ok")

    def test_usage_error_is_one(self, capsys, p4_file):
        code, _, err = run_cli(capsys, "--input", str(p4_file), "--solver", "magic")
        assert code == 1
        assert "usage error" in err

    def test_nonpositive_time_limit_is_one(self, capsys, p4_file):
        code, _, err = run_cli(capsys, "--input", str(p4_file), "--time-limit", "0")
        assert code == 1

    def test_nan_time_limit_is_one(self, capsys, p4_file):
        code, out, err = run_cli(capsys, "--input", str(p4_file), "--time-limit", "nan")
        assert code == 1
        assert "usage error" in err and out == ""

    def test_heuristic_without_time_limit_is_one(self, capsys, p4_file):
        code, out, err = run_cli(
            capsys, "--input", str(p4_file), "--solver", "heuristic", "--time-limit", "inf",
        )
        assert code == 1
        assert "usage error" in err and "heuristic mode" in err and out == ""

    @pytest.mark.parametrize(
        "bad",
        [("--edge-cap", "-5"), ("--edge-cap", "0"), ("--time-limit", "0"), ("--time-limit", "nan")],
    )
    @pytest.mark.parametrize("reductions", ["2pack", "elaborated"])
    def test_kernel_only_validates_config(self, capsys, p4_file, bad, reductions):
        code, out, err = run_cli(
            capsys,
            "--input", str(p4_file), "--reductions", reductions, "--kernel-only", *bad,
        )
        assert code == 1
        assert "usage error" in err and out == ""

    def test_kernel_only_with_output_is_one(self, capsys, p4_file, tmp_path):
        # --kernel-only writes no solution, so --output is refused, not ignored.
        out_file = tmp_path / "sol.txt"
        code, out, err = run_cli(
            capsys, "--input", str(p4_file), "--kernel-only", "--output", str(out_file),
        )
        assert code == 1
        assert "usage error" in err and "--kernel-only" in err and out == ""
        assert not out_file.exists()

    def test_timeout_is_two(self, capsys, tmp_path):
        path = tmp_path / "c6.graph"
        path.write_text(write_metis(cycle_graph(6)))
        out_file = tmp_path / "sol.txt"
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack",
            "--time-limit", "1e-9", "--stats", "csv", "--output", str(out_file),
        )
        assert code == 2
        assert out.strip().splitlines()[1].split(",")[-1] == "timeout"
        assert out_file.exists()

    def test_heuristic_never_times_out(self, capsys, tmp_path):
        path = tmp_path / "c6.graph"
        path.write_text(write_metis(cycle_graph(6)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack",
            "--solver", "heuristic", "--time-limit", "1e-9", "--stats", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[-1] == "ok"

    def test_memcap_is_three(self, capsys, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text(write_metis(star_graph(5, center=0)))
        code, out, _ = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack",
            "--edge-cap", "5", "--stats", "csv",
        )
        assert code == 3
        assert out.strip().splitlines()[1].split(",")[-1] == "memcap"

    def test_kernel_only_memcap(self, capsys, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text(write_metis(star_graph(5, center=0)))
        code, _, err = run_cli(
            capsys,
            "--input", str(path), "--reductions", "2pack",
            "--edge-cap", "5", "--kernel-only",
        )
        assert code == 3
        assert "edge cap" in err


def test_module_invocation_help():
    # ``-m`` puts the working directory on the path: run next to the package
    # this suite imports, installed or not.
    proc = subprocess.run(
        [sys.executable, "-m", "twopack", "--help"],
        capture_output=True,
        text=True,
        cwd=Path(twopack.__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert "--reductions" in proc.stdout


LESMIS = Path(__file__).resolve().parent.parent / "data" / "instances" / "lesmis.graph"
MS_CELLS = (5, 6)  # t_find_ms, t_prove_ms: wall times, masked when present


def _mask_times(out: str) -> str:
    lines = out.split("\n")
    if lines[0] == CSV_HEADER:
        cells = lines[1].split(",")
        for i in MS_CELLS:
            cells[i] = "MS" if cells[i] else ""
        lines[1] = ",".join(cells)
    else:
        for i, line in enumerate(lines):
            key = line[:11].rstrip()
            if key in ("t_find_ms", "t_prove_ms") and line[12:]:
                lines[i] = line[:12] + "MS"
    return "\n".join(lines)


GOLDEN = {
    ("--stats", "csv"): (0, f"{CSV_HEADER}\nlesmis,elaborated,exact,0,10,MS,MS,0,0,0,0,10,ok\n"),
    ("--stats", "table"): (0, (
        "instance    lesmis\n"
        "variant     elaborated\n"
        "mode        exact\n"
        "seed        0\n"
        "size        10\n"
        "t_find_ms   MS\n"
        "t_prove_ms  MS\n"
        "n_kernel    0\n"
        "m_kernel    0\n"
        "n_sq        0\n"
        "m_sq        0\n"
        "offset      10\n"
        "status      ok\n"
    )),
    ("--kernel-only", "--stats", "csv"): (0, (
        "instance,variant,n,m,n_kernel,m_kernel,m2_kernel,n_sq,m_sq,offset,n_ratio,m_ratio\n"
        "lesmis,elaborated,77,254,0,0,0,0,0,10,0.0,0.0\n"
    )),
    ("--kernel-only", "--stats", "csv", "--reductions", "2pack"): (0, (
        "instance,variant,n,m,n_kernel,m_kernel,m2_kernel,n_sq,m_sq,offset,n_ratio,m_ratio\n"
        "lesmis,2pack,77,254,77,254,0,77,1249,0,100.0,491.73\n"
    )),
    ("--kernel-only",): (0, (
        "instance    lesmis\n"
        "variant     elaborated\n"
        "n           77\n"
        "m           254\n"
        "n_kernel    0\n"
        "m_kernel    0\n"
        "m2_kernel   0\n"
        "n_sq        0\n"
        "m_sq        0\n"
        "offset      10\n"
        "n_ratio     0.0\n"
        "m_ratio     0.0\n"
    )),
    ("--kernel-only", "--reductions", "2pack"): (0, (
        "instance    lesmis\n"
        "variant     2pack\n"
        "n           77\n"
        "m           254\n"
        "n_kernel    77\n"
        "m_kernel    254\n"
        "m2_kernel   0\n"
        "n_sq        77\n"
        "m_sq        1249\n"
        "offset      0\n"
        "n_ratio     100.0\n"
        "m_ratio     491.73\n"
    )),
}


class TestGoldenOutput:
    """The CLI's stdout, stderr and exit code, byte for byte (wall times masked)."""

    @pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
    def test_lesmis(self, capsys, args):
        code, out, err = run_cli(capsys, "--input", str(LESMIS), *args)
        assert (code, _mask_times(out), err) == (*GOLDEN[args], "")

    @pytest.fixture
    def star_file(self, tmp_path):
        path = tmp_path / "star.graph"
        path.write_text(write_metis(star_graph(5, center=0)))
        return path

    def test_memcap_csv(self, capsys, star_file):
        code, out, err = run_cli(
            capsys, "--input", str(star_file), "--reductions", "2pack",
            "--edge-cap", "5", "--stats", "csv",
        )
        assert (code, out, err) == (3, f"{CSV_HEADER}\nstar,2pack,exact,0,0,,,6,5,,,0,memcap\n", "")

    def test_memcap_table(self, capsys, star_file):
        code, out, err = run_cli(
            capsys, "--input", str(star_file), "--reductions", "2pack", "--edge-cap", "5",
        )
        want = (
            "instance    star\n"
            "variant     2pack\n"
            "mode        exact\n"
            "seed        0\n"
            "size        0\n"
            "t_find_ms   \n"
            "t_prove_ms  \n"
            "n_kernel    6\n"
            "m_kernel    5\n"
            "n_sq        \n"
            "m_sq        \n"
            "offset      0\n"
            "status      memcap\n"
        )
        assert (code, out, err) == (3, want, "")

    def test_kernel_only_memcap(self, capsys, star_file):
        code, out, err = run_cli(
            capsys, "--input", str(star_file), "--reductions", "2pack",
            "--edge-cap", "5", "--kernel-only",
        )
        assert (code, out, err) == (3, "", "error: square graph exceeds the edge cap\n")
