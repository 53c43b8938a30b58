"""Command-line interface.

Subcommands: ``enumerate`` builds catalog CSVs (optionally one shard slice),
``classify`` classifies images from a file, ``report`` prints a family's
count table, ``conjectures`` scans a catalog for counterexamples, and
``fixtures`` prints the built-in named images.

Exit codes: 0 success (and conjecture scan consistent), 1 usage or input
error, 2 conjecture counterexample found, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import build_catalog, build_report, scan_conjectures
from .enumerator import FAMILIES
from .homotopy import Classification, classify
from .image import DigitalImage, LatticeImage, graph6_decode, graph6_encode, lattice_to_image
from .lattice import builtin_fixtures

FIXTURE_NAMES = tuple(builtin_fixtures())


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this contract reserves 2
    for conjecture counterexamples, so remap usage failures to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="digitop", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    enum = commands.add_parser("enumerate", help="build catalog CSV files")
    enum.add_argument("--family", required=True, choices=FAMILIES)
    enum.add_argument("--n", required=True, type=int, metavar="MAX", help="largest point count")
    enum.add_argument("--out", required=True, metavar="DIR", help="catalog directory")
    enum.add_argument("--shards", type=int, default=1, metavar="K", help="total shard count")
    enum.add_argument(
        "--shard", type=int, default=None, metavar="I", help="emit only shard I (0-based)"
    )

    cls = commands.add_parser("classify", help="classify images read from a file")
    cls.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    cls.add_argument("--format", required=True, choices=("g6", "lattice"))

    rep = commands.add_parser("report", help="print a family count table")
    rep.add_argument("--catalog", required=True, metavar="DIR")
    rep.add_argument("--family", required=True, choices=FAMILIES)
    rep.add_argument("--format", default="csv", choices=("csv", "md"))

    conj = commands.add_parser("conjectures", help="scan a catalog for counterexamples")
    conj.add_argument("--catalog", required=True, metavar="DIR")

    fix = commands.add_parser("fixtures", help="print built-in named images")
    fix.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    fix.add_argument("--classify", action="store_true", help="also classify the fixture")

    return parser


def _classification_text(result: Classification) -> str:
    return (
        f"reducible={int(result.reducible)} "
        f"pointed_reducible={int(result.pointed_reducible)} "
        f"rigid={int(result.rigid)} label={result.label}"
    )


def _cmd_enumerate(args) -> int:
    build_catalog(
        args.out,
        args.family,
        args.n,
        shards=args.shards,
        shard=args.shard,
        log=lambda message: print(message, file=sys.stderr),
    )
    return 0


def _parse_lattice_file(text: str) -> LatticeImage:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] not in ("kind=4", "kind=8"):
        raise ValueError("lattice input must start with 'kind=4' or 'kind=8'")
    kind = int(lines[0].split("=")[1])
    points = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'x y' pair, got {line!r}")
        points.append((int(parts[0]), int(parts[1])))
    if not points:
        raise ValueError("lattice input names no points")
    return LatticeImage(kind=kind, points=frozenset(points))


def _cmd_classify(args) -> int:
    with open(args.in_path) as handle:
        text = handle.read()
    if args.format == "g6":
        codes = [line.strip() for line in text.splitlines() if line.strip()]
        if not codes:
            raise ValueError("no graph6 codes in input")
        for code in codes:
            image = graph6_decode(code)
            result = classify(image)
            print(f"{code} n={image.n} {_classification_text(result)}")
        return 0
    lattice = _parse_lattice_file(text)
    image = lattice_to_image(lattice)
    result = classify(image)
    print(
        f"kind={lattice.kind} n={image.n} g6={graph6_encode(image)} "
        f"{_classification_text(result)}"
    )
    return 0


def _cmd_report(args) -> int:
    table = build_report(args.catalog, args.family)
    for warning in table.warnings:
        print(f"digitop report: {warning}", file=sys.stderr)
    sys.stdout.write(table.render(args.format))
    return 0


def _cmd_conjectures(args) -> int:
    report = scan_conjectures(args.catalog)
    for entry in report.findings:
        print(
            f"finding: {entry.family} n={entry.n} {entry.canonical} "
            f"cycle={int(entry.is_cycle)} planar={int(entry.planar)}"
        )
    for text in report.counterexamples:
        print(f"counterexample: {text}")
    if report.consistent:
        print(f"consistent ({len(report.findings)} nonrigid irreducible entries)")
        return 0
    print(f"{len(report.counterexamples)} counterexamples found")
    return 2


def _cmd_fixtures(args) -> int:
    fixture = builtin_fixtures()[args.name]
    if isinstance(fixture, DigitalImage):
        image = fixture
        line = f"name={args.name} g6={graph6_encode(image)} n={image.n}"
    else:
        image = lattice_to_image(fixture)
        cells = ";".join(f"{x},{y}" for x, y in fixture.sorted_points())
        line = f"name={args.name} kind={fixture.kind} n={image.n} cells={cells}"
    if args.classify:
        line += " " + _classification_text(classify(image))
    print(line)
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "report": _cmd_report,
    "conjectures": _cmd_conjectures,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"digitop {args.command}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"digitop {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
