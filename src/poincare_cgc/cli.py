"""Command-line front end.

Subcommands:

table
    Emit every coefficient of one generated table, evaluated at a fixed
    direction, as CSV or JSON. With --symbolic-check each row also carries
    the stored closed-form expression and the residual between the emitted
    value and that expression.
verify
    Run the library's verification suite and report each invariant with
    its measured residual and tolerance. Exit status 1 when any check
    fails. --format json gives each check's margin (tolerance / residual)
    and wall time as well, and the notes.
decompose
    Project one of the four maximally spin-correlated product states onto
    partial-wave channels and emit the coefficient rows.

All commands are deterministic: identical flags produce byte-identical
output, apart from the wall times of verify --format json. Angles are
radians. Numbers are printed with 17 significant digits ("." decimal
separator, no locale), which round-trips IEEE doubles losslessly. Exit
codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from . import verify as verify_suite
from .cgc import (
    SCHEMES,
    TwoParticleSpec,
    coupling_channels,
    helicity_com_scalar,
    spin_orbit_com_table,
)
from .halfint import HalfInt, components
from .reference_tables import reference_cells
from .states import BELL_LABELS, bell_state, decompose_product_state

__all__ = [
    "OutputRecord",
    "main",
    "cmd_table",
    "cmd_verify",
    "cmd_decompose",
    "records_from_csv",
    "records_from_json",
]

_SPEC = TwoParticleSpec.fermion_pair(1.0)
# Any invariant mass above threshold works here: the emitted angular
# coefficients do not depend on it.
_DECOMPOSE_S = 9.0


class _Field(NamedTuple):
    """One output field: its JSON key, its CSV column or the two columns of
    a pair, the type its text parses back to (str, float, HalfInt, or
    complex for a re/im pair) and the attribute it renders, dotted paths
    allowed, when that is not the key."""

    key: str
    columns: tuple
    kind: type = HalfInt
    attr: str = ""

    def get(self, row):
        return attrgetter(self.attr or self.key)(row)


_TABLE_FIELDS = (
    _Field("scheme", ("scheme",), str),
    _Field("j", ("j",)),
    _Field("eta", ("eta1", "eta2")),
    _Field("component", ("component",)),
    _Field("pair", ("chi1", "chi2")),
    _Field("theta", ("theta",), float),
    _Field("phi", ("phi",), float),
    _Field("value", ("value_re", "value_im"), complex),
)
_SYMBOLIC_FIELDS = _TABLE_FIELDS + (
    _Field("expression", ("expression",), str),
    _Field("residual", ("residual",), float),
)
_DECOMPOSE_FIELDS = (
    _Field("j", ("j",)),
    _Field("eta", ("eta1", "eta2"), attr="channel.eta"),
    _Field("component", ("component",)),
    _Field("coefficient", ("coeff_re", "coeff_im"), complex),
)


@dataclass(frozen=True)
class OutputRecord:
    """Self-describing row of the table emitters.

    eta holds the channel degeneracy pair ``channel.eta``: (l, s) for
    spin-orbit rows, (lambda1, lambda2) for helicity rows. pair holds the
    spin slot the value belongs to; for helicity rows it repeats the
    channel pair, since those amplitudes live on the channel's own helicity
    slot. value is the coefficient at (theta, phi). expression and residual
    are set only by --symbolic-check.
    """

    scheme: str
    j: HalfInt
    eta: tuple
    component: HalfInt
    pair: tuple
    theta: float
    phi: float
    value: complex
    expression: str | None = None
    residual: float | None = None


def _fmt(x) -> str:
    """17-significant-digit decimal form; lossless for IEEE doubles."""
    return "%.17g" % float(x)


def _parts(value) -> tuple:
    """A field's value as its cells: a pair or a complex number fills two."""
    if isinstance(value, complex):
        return value.real, value.imag
    return value if isinstance(value, tuple) else (value,)


def _cell(part, fmt: str) -> str:
    if not isinstance(part, str):
        return _fmt(part)
    return part if fmt == "csv" else json.dumps(part)


def _render(fields, rows, fmt: str) -> str:
    """CSV, or a JSON array with one object per row, of the fields of rows.

    JSON is rendered by hand so numbers keep the same 17-digit form as the
    CSV; json.dumps would reformat floats.
    """
    table = [[[_cell(p, fmt) for p in _parts(f.get(row))] for f in fields] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [_columns(fields)] + [[t for texts in row for t in texts] for row in table]
        )
        return buf.getvalue()
    if not table:
        return "[]\n"

    def value(texts):
        return texts[0] if len(texts) == 1 else "[" + ", ".join(texts) + "]"

    objects = [
        "{" + ", ".join(f'"{f.key}": {value(texts)}' for f, texts in zip(fields, row)) + "}"
        for row in table
    ]
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _parse(field, parts):
    """A field's value from its CSV cells or the parts of its JSON value."""
    if field.kind is str:
        return parts[0]
    numbers = [float(x) for x in parts]
    if field.kind is complex:
        return complex(*numbers)
    if field.kind is HalfInt:
        numbers = [HalfInt.of(x) for x in numbers]
    return numbers[0] if len(numbers) == 1 else tuple(numbers)


def _record(fields, parts_of) -> OutputRecord:
    """The record whose fields hold the cells parts_of(field) hands over."""
    return OutputRecord(**{f.key: _parse(f, parts_of(f)) for f in fields})


def _columns(fields) -> tuple:
    return tuple(c for f in fields for c in f.columns)


def records_from_csv(text: str) -> list[OutputRecord]:
    """Parse table-command CSV output back into records."""
    rows = list(csv.reader(io.StringIO(text)))
    header = tuple(rows[0])
    fields = {_columns(f): f for f in (_TABLE_FIELDS, _SYMBOLIC_FIELDS)}.get(header)
    if fields is None:
        raise ValueError(f"unrecognized table header: {header!r}")
    return [
        _record(fields, lambda f: [cell[c] for c in f.columns])
        for cell in (dict(zip(header, row)) for row in rows[1:])
    ]


def records_from_json(text: str) -> list[OutputRecord]:
    """Parse table-command JSON output back into records."""
    return [
        _record(
            _SYMBOLIC_FIELDS if "expression" in obj else _TABLE_FIELDS,
            lambda f: obj[f.key] if len(f.columns) == 2 else [obj[f.key]],
        )
        for obj in json.loads(text)
    ]


def _table_records(scheme, j, theta, phi) -> list[OutputRecord]:
    """Rows of one table: one coupling table per (channel, chi), read slot
    by slot; a helicity amplitude lives on the channel's own slot only."""
    j = HalfInt.of(j)
    records = []
    for channel in coupling_channels(_SPEC, j, scheme):
        for chi in components(j):
            if scheme == "helicity":
                value = helicity_com_scalar(_SPEC, j, channel, chi, theta, phi)
                slots = [(channel.eta, value)]
            else:
                table = spin_orbit_com_table(_SPEC, j, channel, chi, theta, phi)
                pairs = product(components(_SPEC.j1), components(_SPEC.j2))
                slots = zip(pairs, table.ravel())
            records += [
                OutputRecord(scheme, j, channel.eta, chi, pair, theta, phi, complex(value))
                for pair, value in slots
            ]
    return records


def _with_symbolic(records, scheme, j, theta, phi) -> list[OutputRecord]:
    cells = reference_cells(scheme, j)
    if len(cells) != len(records):
        raise ValueError(
            f"stored table has {len(cells)} cells but the generator "
            f"emitted {len(records)} rows"
        )
    out = []
    for rec, cell in zip(records, cells):
        if (rec.eta, rec.component, rec.pair) != (cell.channel.eta, cell.component, cell.pair):
            raise ValueError(
                f"stored cell order diverged from the generator at "
                f"{rec.eta}, {rec.component}, {rec.pair}"
            )
        residual = abs(rec.value - complex(cell.value(theta, phi)))
        out.append(replace(rec, expression=cell.expression, residual=float(residual)))
    return out


def cmd_table(args) -> int:
    if args.j < 0:
        raise ValueError("total spin --j must be a nonnegative integer")
    records = _table_records(args.scheme, args.j, args.theta, args.phi)
    fields = _TABLE_FIELDS
    if args.symbolic_check:
        records = _with_symbolic(records, args.scheme, args.j, args.theta, args.phi)
        fields = _SYMBOLIC_FIELDS
    sys.stdout.write(_render(fields, records, args.format))
    return 0


def cmd_verify(args) -> int:
    report = verify_suite.run(args.level)
    print(report.format() if args.format == "text" else json.dumps(report.as_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    state = bell_state(args.state, theta=args.theta, phi=args.phi)
    decomposition = decompose_product_state(
        state, _SPEC, _DECOMPOSE_S, args.j_max, args.scheme
    )
    sys.stdout.write(_render(_DECOMPOSE_FIELDS, decomposition.entries, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poincare-cgc",
        description=(
            "Coefficient tables, verification suite, and partial-wave "
            "decompositions for two-particle states. Angles in radians."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="emit one generated coefficient table at a direction"
    )
    table.add_argument("--scheme", choices=SCHEMES, default="spin-orbit")
    table.add_argument("--j", type=int, required=True, help="total spin")
    table.add_argument("--theta", type=float, default=0.0, help="polar angle, radians")
    table.add_argument("--phi", type=float, default=0.0, help="azimuthal angle, radians")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--symbolic-check",
        action="store_true",
        help="append each row's stored closed form and the residual against it",
    )
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--level", choices=verify_suite.LEVELS, default="fast")
    verify.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json: per check name, residual, tolerance, margin, wall_s, passed; and the notes",
    )
    verify.set_defaults(func=cmd_verify)

    decompose = sub.add_parser(
        "decompose", help="project a spin-correlated product state onto channels"
    )
    decompose.add_argument("state", choices=BELL_LABELS)
    decompose.add_argument("--theta", type=float, default=0.0)
    decompose.add_argument("--phi", type=float, default=0.0)
    decompose.add_argument("--j-max", type=int, default=1, dest="j_max")
    decompose.add_argument("--scheme", choices=SCHEMES, default="spin-orbit")
    decompose.add_argument("--format", choices=("csv", "json"), default="csv")
    decompose.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
