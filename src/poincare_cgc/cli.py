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
    fails.
decompose
    Project one of the four maximally spin-correlated product states onto
    partial-wave channels and emit the coefficient rows.

All commands are deterministic: identical flags produce byte-identical
output. Angles are radians. Numbers are printed with 17 significant
digits ("." decimal separator, no locale), which round-trips IEEE doubles
losslessly. Exit codes: 0 success, 1 verification failure, 2 usage error.
The environment variable POINCARE_CGC_GRID="n_theta,n_phi" overrides the
32,64 quadrature used by the full-level Gram check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import verify as verify_suite
from .cgc import (
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

_TABLE_COLUMNS = (
    "scheme", "j", "eta1", "eta2", "component", "chi1", "chi2",
    "theta", "phi", "value_re", "value_im",
)
_SYMBOLIC_COLUMNS = _TABLE_COLUMNS + ("expression", "residual")
_DECOMPOSE_COLUMNS = ("j", "eta1", "eta2", "component", "coeff_re", "coeff_im")


@dataclass(frozen=True)
class OutputRecord:
    """Self-describing row of the table emitters.

    eta holds the channel degeneracy pair: (l, s) for spin-orbit rows,
    (lambda1, lambda2) for helicity rows. pair holds the spin slot the
    value belongs to; for helicity rows it repeats the channel pair, since
    those amplitudes live on the channel's own helicity slot. value is the
    coefficient at (theta, phi). expression and residual are set only by
    --symbolic-check.
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


def _record_csv_row(rec: OutputRecord) -> list[str]:
    row = [
        rec.scheme, _fmt(rec.j), _fmt(rec.eta[0]), _fmt(rec.eta[1]),
        _fmt(rec.component), _fmt(rec.pair[0]), _fmt(rec.pair[1]),
        _fmt(rec.theta), _fmt(rec.phi), _fmt(rec.value.real), _fmt(rec.value.imag),
    ]
    if rec.expression is not None:
        row += [rec.expression, _fmt(rec.residual)]
    return row


def _record_json_pairs(rec: OutputRecord) -> list[tuple[str, str]]:
    pairs = [
        ("scheme", json.dumps(rec.scheme)),
        ("j", _fmt(rec.j)),
        ("eta", f"[{_fmt(rec.eta[0])}, {_fmt(rec.eta[1])}]"),
        ("component", _fmt(rec.component)),
        ("pair", f"[{_fmt(rec.pair[0])}, {_fmt(rec.pair[1])}]"),
        ("theta", _fmt(rec.theta)),
        ("phi", _fmt(rec.phi)),
        ("value", f"[{_fmt(rec.value.real)}, {_fmt(rec.value.imag)}]"),
    ]
    if rec.expression is not None:
        pairs.append(("expression", json.dumps(rec.expression)))
        pairs.append(("residual", _fmt(rec.residual)))
    return pairs


def _emit_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_json(objects) -> str:
    """Serialize rows of (key, rendered-value) pairs as a JSON array.

    Rendering is done by hand so numbers keep the same 17-digit form as
    the CSV emitter; json.dumps would reformat floats.
    """
    objects = list(objects)
    if not objects:
        return "[]\n"
    lines = []
    for pairs in objects:
        body = ", ".join(f'"{key}": {value}' for key, value in pairs)
        lines.append("{" + body + "}")
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _halfint_field(text: str) -> HalfInt:
    return HalfInt.of(float(text))


def records_from_csv(text: str) -> list[OutputRecord]:
    """Parse table-command CSV output back into records."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = tuple(rows[0]), rows[1:]
    if header not in (_TABLE_COLUMNS, _SYMBOLIC_COLUMNS):
        raise ValueError(f"unrecognized table header: {header!r}")
    out = []
    for row in body:
        rec = OutputRecord(
            scheme=row[0],
            j=_halfint_field(row[1]),
            eta=(_halfint_field(row[2]), _halfint_field(row[3])),
            component=_halfint_field(row[4]),
            pair=(_halfint_field(row[5]), _halfint_field(row[6])),
            theta=float(row[7]),
            phi=float(row[8]),
            value=complex(float(row[9]), float(row[10])),
            expression=row[11] if len(row) > 11 else None,
            residual=float(row[12]) if len(row) > 11 else None,
        )
        out.append(rec)
    return out


def records_from_json(text: str) -> list[OutputRecord]:
    """Parse table-command JSON output back into records."""
    out = []
    for obj in json.loads(text):
        out.append(
            OutputRecord(
                scheme=obj["scheme"],
                j=HalfInt.of(obj["j"]),
                eta=tuple(HalfInt.of(x) for x in obj["eta"]),
                component=HalfInt.of(obj["component"]),
                pair=tuple(HalfInt.of(x) for x in obj["pair"]),
                theta=float(obj["theta"]),
                phi=float(obj["phi"]),
                value=complex(*obj["value"]),
                expression=obj.get("expression"),
                residual=obj.get("residual"),
            )
        )
    return out


def _table_records(scheme, j, theta, phi) -> list[OutputRecord]:
    """Rows of one table: one coupling table per (channel, chi), read slot by slot."""
    j = HalfInt.of(j)
    records = []
    for channel in coupling_channels(_SPEC, j, scheme):
        for chi in components(j):
            if scheme == "spin-orbit":
                table = spin_orbit_com_table(_SPEC, j, channel, chi, theta, phi)
                for a, c1 in enumerate(components(_SPEC.j1)):
                    for b, c2 in enumerate(components(_SPEC.j2)):
                        records.append(
                            OutputRecord(
                                scheme=scheme, j=j, eta=(channel.l, channel.s),
                                component=chi, pair=(c1, c2), theta=theta,
                                phi=phi, value=complex(table[a, b]),
                            )
                        )
            else:
                value = helicity_com_scalar(_SPEC, j, channel, chi, theta, phi)
                records.append(
                    OutputRecord(
                        scheme=scheme, j=j, eta=(channel.lam1, channel.lam2),
                        component=chi, pair=(channel.lam1, channel.lam2),
                        theta=theta, phi=phi, value=complex(value),
                    )
                )
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
        if (rec.eta, rec.component, rec.pair) != (
            (cell.channel.l, cell.channel.s)
            if scheme == "spin-orbit"
            else (cell.channel.lam1, cell.channel.lam2),
            cell.component,
            cell.pair,
        ):
            raise ValueError(
                f"stored cell order diverged from the generator at "
                f"{rec.eta}, {rec.component}, {rec.pair}"
            )
        residual = abs(rec.value - complex(cell.value(theta, phi)))
        out.append(
            OutputRecord(
                scheme=rec.scheme, j=rec.j, eta=rec.eta,
                component=rec.component, pair=rec.pair, theta=rec.theta,
                phi=rec.phi, value=rec.value,
                expression=cell.expression, residual=float(residual),
            )
        )
    return out


def cmd_table(args) -> int:
    if args.j < 0:
        raise ValueError("total spin --j must be a nonnegative integer")
    records = _table_records(args.scheme, args.j, args.theta, args.phi)
    if args.symbolic_check:
        records = _with_symbolic(records, args.scheme, args.j, args.theta, args.phi)
        columns = _SYMBOLIC_COLUMNS
    else:
        columns = _TABLE_COLUMNS
    if args.format == "csv":
        text = _emit_csv(columns, (_record_csv_row(r) for r in records))
    else:
        text = _emit_json(_record_json_pairs(r) for r in records)
    sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    report = verify_suite.run(args.level, gram_grid=_gram_grid_from_env())
    print(report.format())
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    state = bell_state(args.state, theta=args.theta, phi=args.phi)
    decomposition = decompose_product_state(
        state, _SPEC, _DECOMPOSE_S, args.j_max, args.scheme
    )
    if args.format == "csv":
        rows = []
        for e in decomposition.entries:
            eta = _entry_eta(e, args.scheme)
            rows.append(
                [
                    _fmt(e.j), _fmt(eta[0]), _fmt(eta[1]), _fmt(e.component),
                    _fmt(e.coefficient.real), _fmt(e.coefficient.imag),
                ]
            )
        text = _emit_csv(_DECOMPOSE_COLUMNS, rows)
    else:
        objects = []
        for e in decomposition.entries:
            eta = _entry_eta(e, args.scheme)
            objects.append(
                [
                    ("j", _fmt(e.j)),
                    ("eta", f"[{_fmt(eta[0])}, {_fmt(eta[1])}]"),
                    ("component", _fmt(e.component)),
                    (
                        "coefficient",
                        f"[{_fmt(e.coefficient.real)}, {_fmt(e.coefficient.imag)}]",
                    ),
                ]
            )
        text = _emit_json(objects)
    sys.stdout.write(text)
    return 0


def _entry_eta(entry, scheme) -> tuple:
    channel = entry.channel
    if scheme == "spin-orbit":
        return (channel.l, channel.s)
    return (channel.lam1, channel.lam2)


def _gram_grid_from_env() -> tuple[int, int] | None:
    raw = os.environ.get("POINCARE_CGC_GRID")
    if raw is None or not raw.strip():
        return None
    parts = raw.split(",")
    try:
        n_theta, n_phi = (int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"POINCARE_CGC_GRID must be 'n_theta,n_phi' integers, got {raw!r}"
        ) from None
    return n_theta, n_phi


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
    table.add_argument(
        "--scheme", choices=("spin-orbit", "helicity"), default="spin-orbit"
    )
    table.add_argument("--j", type=int, required=True, help="total spin")
    table.add_argument("--theta", type=float, default=0.0, help="polar angle, radians")
    table.add_argument(
        "--phi", type=float, default=0.0, help="azimuthal angle, radians"
    )
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--symbolic-check",
        action="store_true",
        help="append each row's stored closed form and the residual against it",
    )
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--level", choices=verify_suite.LEVELS, default="fast")
    verify.set_defaults(func=cmd_verify)

    decompose = sub.add_parser(
        "decompose", help="project a spin-correlated product state onto channels"
    )
    decompose.add_argument("state", choices=BELL_LABELS)
    decompose.add_argument("--theta", type=float, default=0.0)
    decompose.add_argument("--phi", type=float, default=0.0)
    decompose.add_argument("--j-max", type=int, default=1, dest="j_max")
    decompose.add_argument(
        "--scheme", choices=("spin-orbit", "helicity"), default="spin-orbit"
    )
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
