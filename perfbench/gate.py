"""Correctness gate: every answer the benchmark times is checked here.

Catalog levels are checked against the paper's count tables and against
sha256 digests recorded once from the seed commit (``expected.json``), so
the code being measured never vouches for itself.  CSVs are parsed with the
standard ``csv`` module, not with the package's reader.  Each check returns a
list of failure messages; an empty list means the answer is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


def level_file(family: str, n: int) -> str:
    return f"{family}_n{n:02d}.csv"


def expected_counts(family: str, n: int) -> tuple[int, int, int, int]:
    """(images, pointed irreducible, irreducible, rigid) from the paper tables."""
    return tuple(EXPECTED["counts"][family][n - 1])


def csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("ascii"), newline="")))


def level_counts(rows: list[dict[str, str]]) -> tuple[int, int, int, int]:
    return (
        len(rows),
        sum(row["pointed_reducible"] == "0" for row in rows),
        sum(row["reducible"] == "0" for row in rows),
        sum(row["rigid"] == "1" for row in rows),
    )


def check_level(directory: Path | str, family: str, n: int) -> list[str]:
    """The level file exists, has the paper's counts and the recorded digest."""
    name = level_file(family, n)
    path = Path(directory) / name
    if not path.is_file():
        return [f"{name}: missing"]
    data = path.read_bytes()
    problems = []
    try:
        counts = level_counts(csv_rows(data))
    except (KeyError, UnicodeDecodeError, csv.Error) as exc:
        problems.append(f"{name}: unreadable ({exc})")
    else:
        if counts != expected_counts(family, n):
            problems.append(f"{name}: counts {counts} != paper {expected_counts(family, n)}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != EXPECTED["sha256"][name]:
        problems.append(f"{name}: sha256 {digest[:12]} != recorded {EXPECTED['sha256'][name][:12]}")
    return ["; ".join(problems)] if problems else []


def entry_row(entry) -> dict[str, str]:
    """A returned catalog entry in the CSV's own text form."""
    return {
        "family": entry.family,
        "n": str(entry.n),
        "canonical": entry.canonical,
        "reducible": str(int(entry.reducible)),
        "pointed_reducible": str(int(entry.pointed_reducible)),
        "rigid": str(int(entry.rigid)),
        "planar": str(int(entry.planar)),
        "is_cycle": str(int(entry.is_cycle)),
        "witness_cells": "" if entry.witness is None else entry.witness.as_string(),
    }


def check_resumed(directory: Path | str, family: str, n_max: int, entries) -> list[str]:
    """Each resumed level still matches its record and equals what was returned.

    One message per failing level.
    """
    returned: dict[int, list[dict[str, str]]] = {}
    for entry in entries:
        returned.setdefault(entry.n, []).append(entry_row(entry))
    failures = []
    for n in range(1, n_max + 1):
        problems = check_level(directory, family, n)
        if not problems:
            rows = csv_rows((Path(directory) / level_file(family, n)).read_bytes())
            if returned.get(n, []) != rows:
                problems = [f"{level_file(family, n)}: returned entries differ from the file"]
        failures.extend(problems)
    return failures


def check_report(table, family: str) -> list[str]:
    got = [(row.n, row.images, row.pointed_irreducible, row.irreducible, row.rigid) for row in table.rows]
    want = [(n, *counts) for n, counts in enumerate(EXPECTED["counts"][family], 1)]
    if got != want or table.warnings:
        return [f"report {family}: {got} (warnings {list(table.warnings)}) != paper {want}"]
    return []


def check_scan(scan) -> list[str]:
    """The seed catalogs hold no counterexample; findings are the nonrigid irreducibles."""
    want = sum(irr - rigid for rows in EXPECTED["counts"].values() for _, _, irr, rigid in rows)
    if not scan.consistent or len(scan.findings) != want:
        return [f"scan: {len(scan.findings)} findings (want {want}), counterexamples {list(scan.counterexamples)}"]
    return []


def check_core(label: str, n: int, reducible: bool, core, core_verdict) -> list[str]:
    """A core is irreducible, and an image is reducible exactly when its core is smaller."""
    problems = []
    if core_verdict.reducible:
        problems.append("core is reducible")
    if reducible != (core.n < n):
        problems.append(f"reducible={reducible} but core has {core.n} of {n} points")
    return [f"{label}: " + "; ".join(problems)] if problems else []


def check_verdict_table(verdicts, family: str, n: int) -> list[str]:
    """Classification tallies over every class of one level match the paper."""
    got = (
        len(verdicts),
        sum(not v.pointed_reducible for v in verdicts),
        sum(not v.reducible for v in verdicts),
        sum(v.rigid for v in verdicts),
    )
    if got != expected_counts(family, n):
        return [f"{family} n={n} verdicts {got} != paper {expected_counts(family, n)}"]
    return []


def check_pair(label: str, forward: bool, backward: bool, cores_isomorphic: bool) -> list[str]:
    """Equivalence is symmetric and agrees with isomorphism of the two cores."""
    if forward != backward or forward != cores_isomorphic:
        return [f"{label}: forward={forward} backward={backward} cores isomorphic={cores_isomorphic}"]
    return []
