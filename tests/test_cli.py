"""Tests for the command-line front end: emitters, exit codes, determinism."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poincare_cgc.cgc as cgc_module
import poincare_cgc.cli as cli_module
import poincare_cgc.su2 as su2
import poincare_cgc.verify as verify
from poincare_cgc import HalfInt
from poincare_cgc.cli import main, records_from_csv, records_from_json

SQRT_QUARTER_PI = 0.28209479177387814  # sqrt(1/(4 pi)) == 1/(2 sqrt(pi))

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_spin_orbit_symbolic_check(capsys):
    code, out, err = run_cli(
        capsys, "table", "--scheme", "spin-orbit", "--j", "1",
        "--theta", "0.7", "--phi", "0.3", "--format", "csv", "--symbolic-check",
    )
    assert code == 0 and err == ""
    records = records_from_csv(out)
    assert len(records) == 48
    for rec in records:
        assert rec.expression
        assert rec.residual < 1e-12
    # 4 channels x 3 components x 4 spin pairs, every cell present once
    keys = {(rec.eta, rec.component, rec.pair) for rec in records}
    assert len(keys) == 48


def test_table_helicity_j0_values(capsys):
    code, out, err = run_cli(capsys, "table", "--scheme", "helicity", "--j", "0")
    assert code == 0
    records = records_from_csv(out)
    assert len(records) == 2
    for rec in records:
        assert rec.value.real == pytest.approx(SQRT_QUARTER_PI, abs=1e-15)
        assert rec.value.imag == 0.0
        assert rec.pair == rec.eta


def test_table_csv_json_round_trip(capsys):
    base = ["table", "--scheme", "spin-orbit", "--j", "1",
            "--theta", "0.4", "--phi", "1.2"]
    code_csv, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    code_json, out_json, _ = run_cli(capsys, *base, "--format", "json")
    assert code_csv == code_json == 0
    from_csv = records_from_csv(out_csv)
    from_json = records_from_json(out_json)
    assert from_csv == from_json
    # 17 significant digits round-trip doubles losslessly
    direct, _, _ = run_cli(capsys, *base, "--format", "csv")
    assert direct == 0


def test_table_json_is_valid_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--scheme", "helicity", "--j", "1", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    for row in rows:
        assert set(row) == {
            "scheme", "j", "eta", "component", "pair", "theta", "phi", "value"
        }
        assert row["scheme"] == "helicity"
        assert isinstance(row["value"], list) and len(row["value"]) == 2


def test_symbolic_check_round_trips_with_expressions(capsys):
    base = ["table", "--j", "0", "--theta", "1.1", "--phi", "0.2",
            "--symbolic-check"]
    _, out_csv, _ = run_cli(capsys, *base, "--format", "csv")
    _, out_json, _ = run_cli(capsys, *base, "--format", "json")
    from_csv = records_from_csv(out_csv)
    from_json = records_from_json(out_json)
    assert from_csv == from_json
    assert all(r.expression for r in from_csv)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--j", "-1"],
        ["table"],
        ["table", "--j", "1", "--scheme", "bogus"],
        ["table", "--j", "2", "--symbolic-check"],
        ["decompose", "psi22"],
        ["nonsense"],
        [],
        ["decompose", "psi11", "--j-max", "-1"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "psi11", "--theta", "nan", "--j-max", "0"],
        ["decompose", "psi00", "--phi", "inf"],
        ["table", "--j", "0", "--theta", "inf"],
        ["table", "--j", "1", "--scheme", "helicity", "--phi", "nan"],
    ],
)
def test_non_finite_angles_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--j", "2", "--scheme", "helicity", "--phi", "1e308"],
        ["decompose", "psi11", "--j-max", "2", "--scheme", "helicity", "--phi", "1e308"],
        ["table", "--j", "1", "--theta", "1e308", "--phi", "1e308"],
    ],
)
def test_huge_finite_angles_exit_2_without_a_warning(argv):
    """An angle above 1e300 is an error, not NaN rows: the commands exit 2
    with the ValueError message, print nothing and warn nothing, also with
    RuntimeWarnings turned into errors."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "poincare_cgc.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: angle") and "at most 1e+300" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "scheme, largest, too_large",
    [("spin-orbit", "9", "10"), ("helicity", "10", "11")],
)
def test_table_spin_limit_follows_the_scheme(capsys, scheme, largest, too_large):
    """--j is checked against the largest spin the scheme evaluates, j + j1
    + j2 for spin-orbit and j for helicity: the largest accepted j prints its
    table, and the next one exits 2 naming the scheme and the spin it needs."""
    code, out, err = run_cli(capsys, "table", "--scheme", scheme, "--j", largest)
    assert code == 0 and out and err == ""
    code, out, err = run_cli(capsys, "table", "--scheme", scheme, "--j", too_large)
    assert code == 2 and out == ""
    assert err == (f"error: --j {too_large} needs spin 11 in the {scheme} scheme, "
                   "above the supported maximum 10\n")


def _count_kernel_blocks(monkeypatch) -> list:
    """The number of labels of each label kernel call, as calls are made."""
    real = cgc_module._label_tables
    calls = []

    def counted(layout, *args):
        calls.append(len(layout.labels))
        return real(layout, *args)

    monkeypatch.setattr(cgc_module, "_label_tables", counted)
    return calls


def test_table_builds_one_table_per_channel_and_component(capsys, monkeypatch):
    """table --j 1 reads its 48 spin-orbit rows from 12 tables, one label
    kernel block of one table per (channel, chi)."""
    calls = _count_kernel_blocks(monkeypatch)
    code, out, _ = run_cli(capsys, "table", "--j", "1")
    assert code == 0
    assert len(records_from_csv(out)) == 48
    assert calls == [12]


def test_symbolic_check_names_available_tables(capsys):
    code, _, err = run_cli(capsys, "table", "--j", "2", "--symbolic-check")
    assert code == 2
    assert "no stored closed forms for j=2" in err
    assert "available" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "table" in out and "verify" in out and "decompose" in out


def test_output_is_byte_identical_across_runs(capsys):
    for argv in (
        ["table", "--scheme", "helicity", "--j", "1", "--theta", "2.2",
         "--phi", "4.4", "--format", "json"],
        ["verify", "--level", "fast"],
        ["decompose", "psi01", "--theta", "1.0", "--phi", "0.5", "--j-max", "2"],
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "name, argv",
    [
        ("table_j1_symbolic.csv",
         ["table", "--j", "1", "--symbolic-check", "--theta", "1.1", "--phi", "2.2"]),
        ("table_helicity_j2.json",
         ["table", "--scheme", "helicity", "--j", "2", "--format", "json",
          "--theta", "0.7", "--phi", "5.1"]),
        ("decompose_psi11_helicity_j6.csv",
         ["decompose", "psi11", "--j-max", "6", "--scheme", "helicity"]),
        ("decompose_psi01_j6.csv",
         ["decompose", "psi01", "--j-max", "6", "--theta", "1.3", "--phi", "0.4"]),
        ("table_helicity_j1.csv",
         ["table", "--scheme", "helicity", "--j", "1", "--theta", "2.2",
          "--phi", "4.4"]),
        ("table_j1_symbolic.json",
         ["table", "--j", "1", "--symbolic-check", "--format", "json",
          "--theta", "1.1", "--phi", "2.2"]),
        ("decompose_psi10_j2.json",
         ["decompose", "psi10", "--j-max", "2", "--theta", "0.8", "--phi", "3.9",
          "--format", "json"]),
        ("decompose_psi10_helicity_j2.json",
         ["decompose", "psi10", "--j-max", "2", "--theta", "0.8", "--phi", "3.9",
          "--format", "json", "--scheme", "helicity"]),
    ],
)
def test_output_matches_golden_file(capsys, name, argv):
    """Output is pinned across changes, byte for byte, by files under
    tests/data written with the same command line."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (DATA / name).read_bytes()


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert out.startswith("verification report, level=fast")
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    passes = [line for line in lines if line.startswith("PASS")]
    assert not fails
    assert len(passes) == 24
    for name in (
        "sl2c-homomorphism",
        "canonical-rotation-wigner-identity",
        "su2-cgc-orthogonality",
        "reference-table-reproduction",
        "rotation-mixing-sign-conjugated",
    ):
        assert any(name in line for line in passes)
    # informational lines document the convention discrepancies without failing
    assert any(line.startswith("INFO") for line in lines)


def test_verify_json_matches_the_text_report(capsys):
    """--format json carries every check of the text report with the same
    reading, tolerance and verdict, adds margin and wall time, and carries
    the notes; the text report is what verify prints without the flag."""
    code, text, _ = run_cli(capsys, "verify", "--level", "full")
    json_code, out, _ = run_cli(capsys, "verify", "--level", "full", "--format", "json")
    assert code == json_code == 0
    report = json.loads(out)
    rows = [line.split() for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [c["name"] for c in report["checks"]] == [row[1] for row in rows]
    assert len(rows) == 25 and report["passed"] == report["total"] == 25
    assert report["level"] == "full"
    for check, row in zip(report["checks"], rows):
        assert f"{check['residual']:.3e}" == row[3]
        assert f"{check['tolerance']:.1e}" == row[5]
        assert check["passed"] is (row[0] == "PASS")
        assert check["wall_s"] >= 0.0
        if check["residual"] > 0.0:
            assert check["margin"] == check["tolerance"] / check["residual"]
        else:
            assert check["margin"] is None
    assert report["notes"] == [line[6:] for line in text.splitlines() if line.startswith("INFO  ")]


def test_verify_full_prints_phase_residual_tables(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "full")
    assert code == 0
    assert "gram-orthonormality-full" in out
    # both trailing-phase residual tables appear, one per sign convention
    assert "residual table, trailing phase exp(+i(lam1-lam2)phi)" in out
    assert "residual table, trailing phase exp(-i(lam1-lam2)phi)" in out


def test_verify_catches_coupling_sign_mutation(capsys, monkeypatch):
    """A sign flip tied to both a row and a column label breaks the coupling
    orthogonality relations and must be reported by name. Flips conditioned
    on only one side are orthogonal relabelings that both relations absorb,
    so the mutation couples chi1 < 0 with j = j1 + j2. It flips the rows
    chi1 < 0 of a copy of every such block of the coupling kernel."""
    real = su2._cg_block

    def flipped(tj1, tj2, tj):
        block = real(tj1, tj2, tj).copy()
        if tj == tj1 + tj2:
            block[np.arange(tj1, -tj1 - 1, -2) < 0] *= -1.0
        return block

    monkeypatch.setattr(su2, "_cg_block", flipped)
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "su2-cgc-orthogonality" in fails[0]


def _verify_only(monkeypatch, name):
    """Make verify run the one named check, with the rotation fixture and the
    structure notes stubbed out; the report and the CLI path are unchanged."""
    real = verify._fast_checks
    monkeypatch.setattr(
        verify, "_fast_checks", lambda *shared: [c for c in real(*shared) if c[0] == name]
    )
    monkeypatch.setattr(verify, "_rotation_fixture", lambda: (0.0, 0.0, 0.0))
    monkeypatch.setattr(verify, "_structure_notes", lambda helicity: [])


def _fails(capsys, name):
    code, out, _ = run_cli(capsys, "verify")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    return code == 1 and len(fails) == 1 and name in fails[0]


def test_verify_catches_a_json_loader_that_changes_the_state(capsys, monkeypatch):
    real = verify.state_from_json

    def conjugating(text, spec):
        state = real(text, spec)
        return dataclasses.replace(state, amplitudes=state.amplitudes.conj())

    _verify_only(monkeypatch, "json-round-trip")
    assert not _fails(capsys, "json-round-trip")
    monkeypatch.setattr(verify, "state_from_json", conjugating)
    assert _fails(capsys, "json-round-trip")


@pytest.mark.parametrize(
    "mutate", [lambda chans: chans[:-1], lambda chans: chans[::-1]], ids=["missing", "reordered"]
)
def test_verify_catches_a_wrong_channel_enumeration(capsys, monkeypatch, mutate):
    """A missing channel and a reordered enumeration both fail the frozen table."""
    real = verify.enumerate_channels
    _verify_only(monkeypatch, "channel-table-reproduction")
    assert not _fails(capsys, "channel-table-reproduction")
    monkeypatch.setattr(verify, "enumerate_channels", lambda *args: mutate(real(*args)))
    assert _fails(capsys, "channel-table-reproduction")


def test_verify_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="level must be one of"):
        verify.run("medium")


@pytest.mark.parametrize(
    "mutate, message",
    [(lambda cells: cells[:-1], "stored table has 7 cells but the generator emitted 8 rows"),
     (lambda cells: cells[::-1], "stored cell order diverged from the generator")],
    ids=["count", "order"],
)
def test_symbolic_check_rejects_stored_cells_that_do_not_match(capsys, monkeypatch,
                                                               mutate, message):
    real = cli_module.reference_cells
    monkeypatch.setattr(cli_module, "reference_cells", lambda *args: mutate(real(*args)))
    code, out, err = run_cli(capsys, "table", "--j", "0", "--symbolic-check")
    assert code == 2 and out == ""
    assert message in err


def test_records_from_csv_rejects_an_unknown_header():
    with pytest.raises(ValueError, match="unrecognized table header"):
        records_from_csv("scheme,j,eta1\nspin-orbit,0,0\n")


def test_helicity_table_builds_one_table_per_channel_and_component(capsys, monkeypatch):
    """table --scheme helicity --j 1 reads its 12 rows from 12 tables, one
    slot of each, in one label kernel block."""
    calls = _count_kernel_blocks(monkeypatch)
    code, out, _ = run_cli(capsys, "table", "--scheme", "helicity", "--j", "1")
    assert code == 0
    assert len(records_from_csv(out)) == 12
    assert calls == [12]


def test_verify_builds_the_rotation_fixture_once(monkeypatch):
    """The rotation checks and the bare-mixing note share one fixture per run."""
    real = verify._rotation_fixture
    calls = []

    def counted():
        calls.append(None)
        return real()

    monkeypatch.setattr(verify, "_rotation_fixture", counted)
    assert verify.run("fast").ok
    assert len(calls) == 1


def test_verify_builds_the_helicity_probe_once(monkeypatch):
    """The recoupling check and the helicity rotation note share one probe
    basis per run."""
    real = verify._helicity_probe
    calls = []

    def counted():
        calls.append(None)
        return real()

    monkeypatch.setattr(verify, "_helicity_probe", counted)
    assert verify.run("fast").ok
    assert len(calls) == 1


def test_verify_catches_a_slot_conversion_that_conjugates(capsys, monkeypatch):
    """Overlaps with conjugated converted states miss Jacob and Wick's
    recoupling coefficients."""
    real = verify.convert_slots_to_canonical

    def conjugating(state):
        converted = real(state)
        return dataclasses.replace(converted, amplitudes=converted.amplitudes.conj())

    _verify_only(monkeypatch, "helicity-spin-orbit-recoupling")
    assert not _fails(capsys, "helicity-spin-orbit-recoupling")
    monkeypatch.setattr(verify, "convert_slots_to_canonical", conjugating)
    assert _fails(capsys, "helicity-spin-orbit-recoupling")


def test_boosted_covariance_builds_each_table_once(monkeypatch):
    """10 draws x 4 channels x 3 components: one rest-frame table per
    (draw, channel, chi') and one boosted table per (draw, channel, chi)."""
    real = verify.spin_orbit_general_table
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(verify, "spin_orbit_general_table", counted)
    assert verify._check_boosted_covariance() <= 1e-10
    assert len(calls) == 240


def test_verify_measures_shared_draws_once(monkeypatch):
    """The canonical-identity draws and the helicity phase residuals feed a
    check and a note, or two notes; each is measured once per full run."""
    calls = []
    for name in ("_canonical_identity_draws", "_helicity_phase_residuals"):
        real = getattr(verify, name)

        def counted(real=real, name=name):
            calls.append(name)
            return real()

        monkeypatch.setattr(verify, name, counted)
    # leave out the expensive checks and notes; only the wiring is counted
    monkeypatch.setattr(verify, "_rotation_fixture", lambda: (0.0, 0.0, 0.0))
    monkeypatch.setattr(verify, "_structure_notes", lambda helicity: [])
    monkeypatch.setattr(
        verify, "_fast_checks",
        lambda canonical, rotation, helicity: [("canonical", lambda: canonical[0], 1e-10)],
    )
    report = verify.run("full")
    assert report.checks[0].passed
    assert sorted(calls) == ["_canonical_identity_draws", "_helicity_phase_residuals"]


def test_decompose_antialigned_state(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "psi11", "--theta", "0", "--j-max", "1",
        "--scheme", "spin-orbit",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,eta1,eta2,component,coeff_re,coeff_im"
    rows = [line.split(",") for line in lines[1:]]
    by_key = {(r[0], r[1], r[2], r[3]): (float(r[4]), float(r[5])) for r in rows}
    re, im = by_key[("0", "0", "0", "0")]
    assert abs(re - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-12
    assert im == 0.0
    for key, (vre, vim) in by_key.items():
        if key[0] == "0" and key[1] == "1":  # j=0 from l=1, s=1
            assert vre == 0.0 and vim == 0.0


def test_decompose_aligned_state_has_zero_singlet(capsys):
    code, out, _ = run_cli(capsys, "decompose", "psi00", "--theta", "0")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    singlet = [r for r in rows if r[:4] == ["0", "0", "0", "0"]]
    assert len(singlet) == 1
    assert float(singlet[0][4]) == 0.0 and float(singlet[0][5]) == 0.0


def test_decompose_rows_have_finite_power(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "psi01", "--theta", "1.0", "--phi", "0.5",
        "--j-max", "2",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    power = sum(float(r[4]) ** 2 + float(r[5]) ** 2 for r in rows)
    assert math.isfinite(power) and power > 0.0


def test_decompose_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "psi11", "--scheme", "helicity", "--j-max", "0",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"j", "eta", "component", "coefficient"}
        assert row["coefficient"][0] == pytest.approx(
            1.0 / math.sqrt(8.0 * math.pi), abs=1e-12
        )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "poincare_cgc.cli", "table", "--j", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("scheme,")
