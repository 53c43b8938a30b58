"""End-to-end command-line behavior: exit codes, output lines, pipelines."""

import subprocess
import sys

import pytest

from digitop.catalog import catalog_path, write_catalog_csv
from digitop.cli import main
from digitop.enumerator import CellSet
from digitop.image import graph6_encode, lattice_to_image
from digitop.lattice import builtin_fixtures

from .conftest import subprocess_env
from .test_catalog import _abstract_entry, _corrupt_level


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--family", "planets", "--n", "3", "--out", "x"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:  # the removed memory-budget option
        main(["enumerate", "--family", "abstract", "--n", "3", "--out", "x",
              "--mem-budget", "-1"])
    assert err.value.code == 1


def test_enumerate_report_conjectures_pipeline(tmp_path, capsys):
    out = str(tmp_path / "catalog")
    assert main(["enumerate", "--family", "abstract", "--n", "5", "--out", out]) == 0
    for n in range(1, 6):
        assert catalog_path(out, "abstract", n).exists()

    assert main(["report", "--catalog", out, "--family", "abstract"]) == 0
    report = capsys.readouterr().out
    assert report.splitlines()[0] == "n,1,2,3,4,5"
    assert "images,1,1,2,6,21" in report

    assert main(["report", "--catalog", out, "--family", "abstract", "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("| n | 1 | 2 | 3 | 4 | 5 |")

    assert main(["conjectures", "--catalog", out]) == 0
    scan = capsys.readouterr().out
    assert "consistent" in scan
    assert "finding: abstract n=5" in scan


def test_enumerate_sharded_pipeline(tmp_path, capsys):
    out = str(tmp_path / "catalog")
    for index in ("0", "1"):
        code = main(
            ["enumerate", "--family", "adj4", "--n", "4", "--out", out,
             "--shards", "2", "--shard", index]
        )
        assert code == 0
    assert main(["enumerate", "--family", "adj4", "--n", "4", "--out", out, "--shards", "2"]) == 0
    assert main(["report", "--catalog", out, "--family", "adj4"]) == 0
    assert "images,1,1,1,3" in capsys.readouterr().out


def test_enumerate_option_validation(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["enumerate", "--family", "abstract", "--n", "3", "--out", out,
                 "--shard", "0"]) == 1
    assert main(["enumerate", "--family", "abstract", "--n", "0", "--out", out]) == 1
    assert main(["enumerate", "--family", "abstract", "--n", "3", "--out", out,
                 "--shards", "0"]) == 1


def test_classify_g6_file(tmp_path, capsys):
    path = tmp_path / "codes.g6"
    path.write_text("Bw\nDhc\n")
    assert main(["classify", "--in", str(path), "--format", "g6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "Bw n=3 reducible=1 pointed_reducible=1 rigid=0 label=pointed-reducible"
    )
    assert lines[1] == (
        "Dhc n=5 reducible=0 pointed_reducible=0 rigid=0 label=irreducible non-rigid"
    )


def test_classify_lattice_file(tmp_path, capsys):
    path = tmp_path / "cells.txt"
    path.write_text("kind=4\n0 0\n1 0\n1 1\n")
    assert main(["classify", "--in", str(path), "--format", "lattice"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("kind=4 n=3 g6=")
    assert line.endswith("label=pointed-reducible")


def test_classify_lattice_file_far_from_origin(tmp_path, capsys):
    """Where an image sits does not matter, only its extent, which the
    kernels bound at 2**62 on both backends."""
    lines = []
    for y in (0, 10**20, -(10**20)):
        path = tmp_path / "cells.txt"
        path.write_text(f"kind=4\n5 {y}\n5 {y + 1}\n")
        assert main(["classify", "--in", str(path), "--format", "lattice"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines == ["kind=4 n=2 g6=A_ reducible=1 pointed_reducible=1 rigid=0 "
                     "label=pointed-reducible\n"] * 3

    path.write_text(f"kind=8\n0 0\n{2**62} 0\n")
    assert main(["classify", "--in", str(path), "--format", "lattice"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "digitop classify: cell coordinate outside -2**62..2**62-1\n"


def test_classify_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.g6"
    assert main(["classify", "--in", str(missing), "--format", "g6"]) == 3

    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    assert main(["classify", "--in", str(empty), "--format", "g6"]) == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("4\n0 0\n")
    assert main(["classify", "--in", str(bad), "--format", "lattice"]) == 1

    garbled = tmp_path / "garbled.g6"
    garbled.write_text("B\x1c\n")
    assert main(["classify", "--in", str(garbled), "--format", "g6"]) == 1


def test_report_missing_catalog_exits_3(tmp_path, capsys):
    assert main(["report", "--catalog", str(tmp_path / "void"), "--family", "adj4"]) == 3


def test_report_prints_gap_warnings(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["enumerate", "--family", "abstract", "--n", "4", "--out", out]) == 0
    catalog_path(out, "abstract", 2).unlink()
    capsys.readouterr()
    assert main(["report", "--catalog", out, "--family", "abstract"]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.splitlines()[0] == "n,1,3,4"
    assert stderr == "digitop report: missing catalog file for abstract n=2\n"


@pytest.mark.parametrize("how", ["copied", "empty", "swapped"])
def test_report_and_conjectures_exit_1_on_a_bad_level(tmp_path, capsys, how):
    out = str(tmp_path)
    assert main(["enumerate", "--family", "abstract", "--n", "5", "--out", out]) == 0
    name = _corrupt_level(tmp_path, how)
    capsys.readouterr()
    assert main(["report", "--catalog", out, "--family", "abstract"]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("digitop report: ") and name in stderr
    assert main(["conjectures", "--catalog", out]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("digitop conjectures: ") and name in stderr


def test_conjectures_missing_catalog_exits_3(tmp_path, capsys):
    assert main(["conjectures", "--catalog", str(tmp_path / "void")]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert "no catalog directory" in stderr


def test_conjectures_empty_catalog_exits_3(tmp_path, capsys):
    assert main(["conjectures", "--catalog", str(tmp_path)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert "no catalog files" in stderr


def test_conjectures_counterexample_exits_2(tmp_path, capsys):
    bad = _abstract_entry(
        "Fake", 7, reducible=False, pointed_reducible=False, rigid=False,
        planar=True, is_cycle=False,
    )
    write_catalog_csv(catalog_path(tmp_path, "abstract", 7), [bad])
    assert main(["conjectures", "--catalog", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "counterexample:" in out


def test_fixture_lines(capsys):
    fixtures = builtin_fixtures()

    assert main(["fixtures", "--name", "fig1-1"]) == 0
    assert capsys.readouterr().out.strip() == "name=fig1-1 g6=GrDKPK n=8"

    assert main(["fixtures", "--name", "fig1-2", "--classify"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("name=fig1-2 g6=HhciKeX n=9")
    assert line.endswith("label=irreducible non-rigid")

    assert main(["fixtures", "--name", "fig2a", "--classify"]) == 0
    line = capsys.readouterr().out.strip()
    cells = ";".join(f"{x},{y}" for x, y in fixtures["fig2a"].sorted_points())
    assert line.startswith(f"name=fig2a kind=4 n=13 cells={cells}")
    assert "reducible=1 pointed_reducible=0" in line

    assert main(["fixtures", "--name", "fig2b", "--classify"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("name=fig2b kind=8 n=11")
    assert "label=pointed-irreducible reducible" in line


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "digitop", "fixtures", "--name", "fig1-1"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "name=fig1-1 g6=GrDKPK n=8"


def test_fixture_lattice_g6_agrees(capsys):
    fixtures = builtin_fixtures()
    image = lattice_to_image(fixtures["fig2b"])
    assert graph6_encode(image)  # encodable: 11 points fits the size range
