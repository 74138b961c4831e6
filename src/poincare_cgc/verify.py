"""Self-verification suite behind the command line's verify subcommand.

Each check exercises one library invariant with seeded random draws and
reports the worst measured residual against a fixed tolerance, so the
whole report is byte-for-byte reproducible. Informational notes document
the deviating variant forms recorded in reference_tables, the measured
Gram normalization, and the transformation laws that hold instead of
their more commonly quoted simplifications. Notes never change the exit
status; a build is judged only on the checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import su2
from .cgc import (
    Kinematics,
    TwoParticleSpec,
    coupling_channels,
    discrete_symmetry_labels,
    enumerate_channels,
    helicity_com_table,
    relative_momentum,
    spin_orbit_com_table,
    spin_orbit_general_table,
)
from .halfint import HalfInt, component_index, components, hrange
from .lorentz import (
    METRIC,
    FourMomentum,
    SpinorTransform,
    apply_lorentz,
    canonical_boost,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)
from .reference_tables import CHANNEL_ROWS, reference_cells, variant_cells
from .states import (
    MEASURED_GRAM_DIAGONAL,
    _fixed_to_helicity_slots,
    all_basis_states,
    apply_rotation,
    bell_state,
    build_com_basis_state,
    build_grid,
    convert_slots_to_canonical,
    decompose_product_state,
    gram_matrix,
    inner_product,
    reconstruct,
    state_from_json,
    state_to_json,
)

__all__ = ["CheckResult", "VerifyReport", "run", "LEVELS"]

LEVELS = ("fast", "full")

_SPEC = TwoParticleSpec.fermion_pair(1.0)
_PAIR_S = 9.0
# Fixed probe angles for the deterministic variant-residual notes.
_PROBE_ANGLES = ((0.4, 0.9), (1.7, 2.6), (2.8, 5.1))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant sweep, and the wall time it took."""

    name: str
    residual: float
    tolerance: float
    wall_s: float = 0.0

    @property
    def passed(self) -> bool:
        return np.isfinite(self.residual) and self.residual <= self.tolerance

    @property
    def margin(self) -> float | None:
        """tolerance / residual; None where the residual is 0 or not finite."""
        return self.tolerance / self.residual if 0.0 < self.residual < math.inf else None


@dataclass(frozen=True)
class VerifyReport:
    level: str
    checks: tuple
    notes: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"verification report, level={self.level}"]
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{tag}  {c.name:<{width}}  residual {c.residual:.3e}"
                f"  tolerance {c.tolerance:.1e}"
            )
        counts = sum(c.passed for c in self.checks)
        lines.append(f"{counts}/{len(self.checks)} checks passed")
        for note in self.notes:
            lines.append(f"INFO  {note}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """The report as plain data for JSON: per check its name, residual,
        tolerance, margin, wall_s and passed, then the notes. A residual
        that is not finite is None, so the data stays valid JSON."""
        checks = [
            {
                "name": c.name,
                "residual": c.residual if math.isfinite(c.residual) else None,
                "tolerance": c.tolerance,
                "margin": c.margin,
                "wall_s": c.wall_s,
                "passed": bool(c.passed),
            }
            for c in self.checks
        ]
        passed = sum(c["passed"] for c in checks)
        return {
            "level": self.level,
            "passed": passed,
            "total": len(checks),
            "checks": checks,
            "notes": list(self.notes),
        }


def _quaternion(rng) -> np.ndarray:
    """A normalized Gaussian quaternion, the draw of one Haar-random SU(2)
    element. The norm sums along the axis in order; a BLAS dot, numpy's
    default, may round apart."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q, axis=0)


def _su2(q) -> np.ndarray:
    """SU(2) matrices (..., 2, 2) of unit quaternions q (..., 4)."""
    a = q[..., 0] + 1j * q[..., 1]
    b = q[..., 2] + 1j * q[..., 3]
    return np.stack([np.stack([a, -np.conj(b)], axis=-1), np.stack([b, np.conj(a)], axis=-1)], axis=-2)


def _random_su2(rng) -> np.ndarray:
    return _su2(_quaternion(rng))


def _direction(rng) -> np.ndarray:
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def _momentum_draw(s, scale):
    """The draw of one spatial momentum of mass squared s: a uniform
    direction, then |p| uniform in [0, scale * sqrt(s)]."""

    def draw(rng):
        n = _direction(rng)
        return np.sqrt(s) * scale * rng.uniform() * n

    return draw


_SL2C_BOOST = _momentum_draw(1.0, 3.0)


def _draws(rng, count, *draws) -> list:
    """count rounds of the draws, each round in the order given; one
    stacked array per draw. A sweep takes its seeded inputs in the order
    of a loop over single draws, then makes one batched call."""
    rounds = [[draw(rng) for draw in draws] for _ in range(count)]
    return [np.array(column) for column in zip(*rounds)]


def _sl2c(k, q) -> SpinorTransform:
    """Generic group elements: canonical boosts to the unit-mass momenta
    with spatial parts k, times the rotations of the quaternions q."""
    return canonical_boost(FourMomentum.on_shell(1.0, k)) @ SpinorTransform(_su2(q))


def _check_sl2c_homomorphism() -> float:
    rng = np.random.default_rng(101)
    k_a, q_a, k_b, q_b = _draws(rng, 100, _SL2C_BOOST, _quaternion, _SL2C_BOOST, _quaternion)
    a, b = _sl2c(k_a, q_a), _sl2c(k_b, q_b)
    lhs = spinor_to_lorentz((a @ b).matrix)
    rhs = spinor_to_lorentz(a.matrix) @ spinor_to_lorentz(b.matrix)
    return float(np.abs(lhs - rhs).max())


def _check_metric_preservation() -> float:
    rng = np.random.default_rng(102)
    lam = spinor_to_lorentz(_sl2c(*_draws(rng, 100, _SL2C_BOOST, _quaternion)).matrix)
    return float(np.abs(np.swapaxes(lam, -1, -2) @ METRIC @ lam - METRIC).max())


def _check_boosts_restore_momentum() -> float:
    rng = np.random.default_rng(103)
    (k,) = _draws(rng, 1000, _momentum_draw(1.0, 1e3))
    p = FourMomentum.on_shell(1.0, k)
    worst = 0.0
    for convention in ("canonical", "helicity"):
        # pass the exact mass squared: recovering it from E^2 - |p|^2
        # costs eps*(E/m)^2 relative accuracy at the 1e3 boosts drawn here
        got = apply_lorentz(standard_boost(p, 1.0, convention=convention), FourMomentum.rest(1.0))
        err = np.abs(got.as_array() - p.as_array()).max(axis=-1) / p.energy
        worst = max(worst, float(err.max()))
    return worst


def _check_wigner_in_su2() -> float:
    """Draws alternate between the conventions, canonical first."""
    rng = np.random.default_rng(104)
    k, q, p = _draws(rng, 1000, _SL2C_BOOST, _quaternion, _momentum_draw(1.0, 50.0))
    alpha, p = _sl2c(k, q).matrix, FourMomentum.on_shell(1.0, p)
    worst = 0.0
    for first, convention in enumerate(("canonical", "helicity")):
        w = wigner_rotation(alpha[first::2], p[first::2], convention)
        m = w.matrix
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        worst = max(worst, float(w.unitarity_defect().max()), float(np.abs(det - 1.0).max()))
    return worst


def _little_group_of_rotations(seed, count, convention) -> tuple:
    """(u, W(u, p)) for count seeded rotations u and unit-mass momenta p
    with |p| up to 20."""
    q, k = _draws(np.random.default_rng(seed), count, _quaternion, _momentum_draw(1.0, 20.0))
    u = _su2(q)
    return u, wigner_rotation(u, FourMomentum.on_shell(1.0, k), convention).matrix


def _canonical_identity_draws() -> tuple[float, float]:
    """Canonical-boost little-group elements W(u, p) of seeded rotations:
    (max |W - u|, max |W - 1|) over 100 draws; measured once per run."""
    u, w = _little_group_of_rotations(105, 100, "canonical")
    return float(np.abs(w - u).max()), float(np.abs(w - np.eye(2)).max())


def _canonical_identity_note(draws) -> str:
    to_u, to_identity = draws
    return (
        "canonical-boost little-group elements of pure rotations equal the "
        f"rotation itself: max |W(u,p) - u| = {to_u:.3e} over 100 draws. A "
        "commonly quoted variant sets W(u,p) = 1 instead; measured distance "
        f"to the identity is {to_identity:.3e}, so that variant is rejected."
    )


def _check_helicity_rotation_axis() -> float:
    """Helicity little-group elements of rotations are z rotations."""
    _, w = _little_group_of_rotations(106, 200, "helicity")
    off_diagonal = np.abs(w[:, [0, 1], [1, 0]]).max()
    return float(max(off_diagonal, np.abs(np.abs(w[:, 0, 0]) - 1.0).max()))


def _check_rep_homomorphism() -> float:
    rng = np.random.default_rng(107)
    worst = 0.0
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        u, v = (_su2(q) for q in _draws(rng, 25, _quaternion, _quaternion))
        lhs = su2.rep_matrix(j, u @ v)
        rhs = su2.rep_matrix(j, u) @ su2.rep_matrix(j, v)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _check_cgc_orthogonality() -> float:
    # su2.su2_cgc is called through the module attribute on purpose: the
    # mutation test patches that attribute and this check must notice.
    worst = 0.0
    for tj1 in range(5):
        for tj2 in range(5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            comps1, comps2 = components(j1), components(j2)
            js = list(hrange(abs(j1 - j2), j1 + j2))
            rows = []
            for j in js:
                for chi in components(j):
                    rows.append(
                        [
                            su2.su2_cgc(j, j1, j2, chi, c1, c2)
                            for c1 in comps1
                            for c2 in comps2
                        ]
                    )
            mat = np.array(rows)
            gram = mat @ mat.T
            worst = max(worst, float(np.abs(gram - np.eye(len(rows))).max()))
            completeness = mat.T @ mat
            worst = max(
                worst, float(np.abs(completeness - np.eye(mat.shape[1])).max())
            )
    return worst


def _check_spherical_harmonics() -> float:
    theta = np.linspace(0.1, np.pi - 0.1, 10)[:, None]
    phi = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)[None, :]
    worst = 0.0
    for l in range(5):
        total = np.zeros_like(theta * phi)
        for m in range(-l, l + 1):
            y = su2.spherical_harmonic(l, m, theta, phi)
            flipped = su2.spherical_harmonic(l, -m, theta, phi)
            worst = max(
                worst, float(np.abs(np.conj(y) - (-1.0) ** m * flipped).max())
            )
            total = total + np.abs(y) ** 2
        worst = max(
            worst, float(np.abs(total - (2 * l + 1) / (4 * np.pi)).max())
        )
    return worst


def _check_quadrature_orthonormality() -> float:
    grid = build_grid(32, 64)
    worst = 0.0
    pairs = (((2, 1), (2, 1)), ((2, 1), (2, -1)), ((3, 2), (3, 2)), ((1, 0), (3, 0)))
    for (l1, m1), (l2, m2) in pairs:
        y1 = su2.spherical_harmonic(l1, m1, grid.theta, grid.phi)
        y2 = su2.spherical_harmonic(l2, m2, grid.theta, grid.phi)
        val = np.sum(grid.weights * np.conj(y1) * y2)
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        worst = max(worst, float(abs(val - want)))
    return worst


def _check_reference_tables() -> float:
    rng = np.random.default_rng(108)
    worst = 0.0
    angles = [(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(20)]
    for scheme in ("spin-orbit", "helicity"):
        table_fn = spin_orbit_com_table if scheme == "spin-orbit" else helicity_com_table
        for j in (0, 1):
            for cell in reference_cells(scheme, j):
                a = component_index(_SPEC.j1, cell.pair[0])
                b = component_index(_SPEC.j2, cell.pair[1])
                for theta, phi in angles:
                    got = table_fn(_SPEC, cell.j, cell.channel, cell.component, theta, phi)
                    worst = max(
                        worst, float(abs(got[a, b] - complex(cell.value(theta, phi))))
                    )
    return worst


def _check_channel_table() -> float:
    got = []
    for j in (0, 1):
        for channel in enumerate_channels(_SPEC, j, "spin-orbit"):
            parity, charge = discrete_symmetry_labels(channel.l, channel.s)
            got.append((HalfInt.of(j), channel.s, channel.l, parity, charge))
    want = [(r.j, r.s, r.l, r.parity, r.charge_parity) for r in CHANNEL_ROWS]
    if len(got) != len(want):
        return float(abs(len(got) - len(want)))
    return float(sum(g != w for g, w in zip(got, want)))


def _check_com_reduction() -> float:
    rng = np.random.default_rng(109)
    kin = Kinematics.for_spec(_SPEC, _PAIR_S)
    worst = 0.0
    channel = coupling_channels(_SPEC, 1, "spin-orbit")[2]
    for _ in range(25):
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        n = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        p1 = FourMomentum.on_shell(_SPEC.s1, kin.k * n)
        p2 = FourMomentum.on_shell(_SPEC.s2, -kin.k * n)
        general = spin_orbit_general_table(_SPEC, 1, channel, 0, p1, p2)
        com = spin_orbit_com_table(_SPEC, 1, channel, 0, theta, phi)
        worst = max(worst, float(np.abs(general - com).max()))
    return worst


def _check_relative_momentum() -> float:
    rng = np.random.default_rng(110)
    k1, k2 = _draws(rng, 200, _momentum_draw(_SPEC.s1, 4.0), _momentum_draw(_SPEC.s2, 4.0))
    e = relative_momentum(FourMomentum.on_shell(_SPEC.s1, k1), FourMomentum.on_shell(_SPEC.s2, k2))
    # |e_vec| as a FourMomentum's pabs, which rounds as np.linalg.norm of one vector
    length = FourMomentum.from_array(e).pabs
    return float(max(np.abs(e[:, 0]).max(), np.abs(length - 1.0).max()))


def _check_boosted_covariance() -> float:
    """Spin-orbit amplitudes transform by per-slot Wigner rotations."""
    rng = np.random.default_rng(111)
    kin = Kinematics.for_spec(_SPEC, _PAIR_S)
    j = HalfInt(2)
    directions, k = _draws(rng, 10, _direction, _momentum_draw(4.0, 1.5))
    boosts = canonical_boost(FourMomentum.on_shell(4.0, k)).matrix[:, None]
    pairs = [kin.momenta(n) for n in directions]
    # per draw: the pair and the pair rest momentum, then their images
    rest = FourMomentum.rest(_PAIR_S).as_array()
    momenta = FourMomentum.from_array([[p1.as_array(), p2.as_array(), rest] for p1, p2 in pairs])
    w = wigner_rotation(boosts, momenta).matrix
    images = apply_lorentz(boosts, momenta[:, :2])
    d1, d2 = su2.rep_matrix(_SPEC.j1, w[:, 0]), su2.rep_matrix(_SPEC.j2, w[:, 1])
    dj = su2.rep_matrix(j, w[:, 2])
    worst = 0.0
    for draw, (p1, p2) in enumerate(pairs):
        q1, q2 = images[draw, 0], images[draw, 1]
        for channel in coupling_channels(_SPEC, j, "spin-orbit"):
            tables = [
                spin_orbit_general_table(_SPEC, j, channel, chi_p, p1, p2)
                for chi_p in components(j)
            ]
            for chi in components(j):
                lhs = spin_orbit_general_table(_SPEC, j, channel, chi, q1, q2)
                icol = component_index(j, chi)
                rhs = np.zeros_like(lhs)
                for chi_p, table in zip(components(j), tables):
                    rhs += dj[draw, component_index(j, chi_p), icol] * np.einsum(
                        "ac,bd,cd->ab", d1[draw], d2[draw], table
                    )
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _check_gram(j_max, n_theta, n_phi) -> float:
    grid = build_grid(n_theta, n_phi)
    worst = 0.0
    for scheme in ("spin-orbit", "helicity"):
        states = all_basis_states(grid, _SPEC, _PAIR_S, j_max, scheme)
        gram = gram_matrix(states)
        worst = max(
            worst,
            float(np.abs(gram - MEASURED_GRAM_DIAGONAL * np.eye(len(states))).max()),
        )
    return worst


def _check_gram_fast() -> float:
    return _check_gram(1, 24, 48)


def _rotation_blocks(states, u) -> tuple[float, list]:
    """Overlaps <state | u state'> of states with their rotations by u, cut
    into (j, channel) blocks: the largest overlap across blocks and the
    (j, D^j(u), block) of every block."""
    rotated = [apply_rotation(st, u) for st in states]
    overlap = np.array([[complex(inner_product(a, b)) for b in rotated] for a in states])
    labels = [(st.j, st.channel) for st in states]
    cross, blocks = 0.0, []
    for j, channel in set(labels):
        inside = np.array([label == (j, channel) for label in labels])
        blocks.append((j, su2.rep_matrix(j, u), overlap[np.ix_(inside, inside)]))
        cross = max(cross, float(np.abs(overlap[np.ix_(inside, ~inside)]).max()))
    return cross, blocks


def _rotation_fixture() -> tuple[float, float, float]:
    """j <= 1 orbital/spin states on 16x33 rotated by a seeded u; built
    once per :func:`run`.

    Returns the largest overlap <state | u state> across blocks and the
    worst deviation of a block from the sign-conjugated law S D(u) S,
    S = diag((-1)^chi), and from the bare D(u).
    """
    grid = build_grid(16, 33)
    states = all_basis_states(grid, _SPEC, _PAIR_S, 1, "spin-orbit")
    cross, blocks = _rotation_blocks(states, _random_su2(np.random.default_rng(112)))
    law = bare = 0.0
    for j, dj, block in blocks:
        xi = np.diag([(-1.0) ** int(c) for c in components(j)])
        law = max(law, float(np.abs(block - MEASURED_GRAM_DIAGONAL * (xi @ dj @ xi)).max()))
        bare = max(bare, float(np.abs(block - dj).max()))
    return cross, law, bare


def _bare_mixing_note(bare: float) -> str:
    return (
        "orbital/spin basis states mix under a rotation u by S D(u) S with "
        "S = diag((-1)^chi), a relabeling forced by the (-1)^chi phase in "
        "the coupling amplitude; the bare D(u) mixing law misses by "
        f"{bare:.3e} on the same draws that pass the conjugated law."
    )


def _check_singlet_invariance() -> float:
    rng = np.random.default_rng(113)
    grid = build_grid(12, 24)
    singlet = build_com_basis_state(
        grid, _SPEC, _PAIR_S, 0, coupling_channels(_SPEC, 0, "spin-orbit")[0], 0
    )
    worst = 0.0
    for _ in range(3):
        rotated = apply_rotation(singlet, _random_su2(rng))
        worst = max(worst, float(np.abs(rotated.amplitudes - singlet.amplitudes).max()))
    return worst


def _check_bell_projection() -> float:
    dec = decompose_product_state(bell_state("psi11"), _SPEC, _PAIR_S, 1, "spin-orbit")
    want = 1.0 / (2.0 * np.sqrt(np.pi))
    singlet = [
        e for e in dec.entries if e.j == HalfInt(0) and e.channel.l == HalfInt(0)
    ]
    residual = abs(complex(singlet[0].coefficient) - want)
    null = decompose_product_state(bell_state("psi00"), _SPEC, _PAIR_S, 0, "spin-orbit")
    zero = [
        e for e in null.entries if e.j == HalfInt(0) and e.channel.l == HalfInt(0)
    ]
    return float(max(residual, abs(complex(zero[0].coefficient))))


def _check_parseval() -> float:
    grid = build_grid(16, 32)
    state = bell_state("psi01", theta=0.9, phi=0.4)
    # Band-limited grid image of the delta state: expand on every channel
    # with j <= j_max and resum; Parseval then compares norms.
    dec = decompose_product_state(state, _SPEC, _PAIR_S, 6, "spin-orbit")
    resummed = reconstruct(dec, grid, _SPEC)
    dec2 = decompose_product_state(resummed, _SPEC, _PAIR_S, 6, "spin-orbit")
    coeff2 = sum(abs(complex(e.coefficient)) ** 2 for e in dec2.entries)
    return float(abs(coeff2 - resummed.norm2()))


def _check_helicity_roundtrip() -> float:
    grid = build_grid(12, 24)
    worst = 0.0
    for j in (0, 1):
        for channel in coupling_channels(_SPEC, j, "helicity"):
            state = build_com_basis_state(grid, _SPEC, _PAIR_S, j, channel, j)
            converted = convert_slots_to_canonical(state)
            back = _fixed_to_helicity_slots(_SPEC, grid.theta, grid.phi, converted.amplitudes)
            worst = max(worst, float(np.abs(back - state.amplitudes).max()))
    return worst


def _check_json_roundtrip() -> float:
    grid = build_grid(8, 16)
    channel = coupling_channels(_SPEC, 1, "spin-orbit")[1]
    state = build_com_basis_state(grid, _SPEC, _PAIR_S, 1, channel, 0)
    text = state_to_json(state)
    loaded = state_from_json(text, _SPEC)
    if state_to_json(loaded) != text:
        return 1.0
    return float(np.abs(loaded.amplitudes - state.amplitudes).max())


def _variant_notes() -> list:
    notes = []
    for cell in variant_cells():
        gap = max(
            abs(complex(cell.value(t, p)) - complex(cell.variant_value(t, p)))
            for t, p in _PROBE_ANGLES
        )
        pair = f"{cell.pair[0]},{cell.pair[1]}"
        notes.append(
            f"variant cell [{cell.scheme} j={cell.j} {cell.channel.label()} "
            f"component={cell.component} pair=({pair})]: library form "
            f"{cell.expression}, variant {cell.variant_expression} deviates "
            f"by {gap:.3e}; {cell.note}"
        )
    for row in CHANNEL_ROWS:
        if row.variant_charge_parity is None:
            continue
        notes.append(
            f"variant charge parity [j={row.j} l={row.l} s={row.s}]: "
            f"(-1)^(l+s) gives {row.charge_parity:+d}, variant lists "
            f"{row.variant_charge_parity:+d}; no function of (l, s) can emit "
            "the variant for this row and +1 for the j=0 (l=1, s=1) row."
        )
    return notes


def _helicity_phase_residuals() -> list:
    """Residuals of both trailing-phase conventions against frozen cells."""
    rows = []
    for j in (0, 1):
        for cell in reference_cells("helicity", j):
            mu = cell.channel.mu
            plus = minus = 0.0
            for theta, phi in _PROBE_ANGLES:
                d = su2.wigner_d_small(cell.j, theta)[
                    component_index(cell.j, cell.component),
                    component_index(cell.j, mu),
                ]
                norm = np.sqrt((cell.j.twice + 1.0) / (4.0 * np.pi))
                base = norm * np.exp(-1j * float(cell.component) * phi) * d
                want = complex(cell.value(theta, phi))
                plus = max(plus, abs(base * np.exp(1j * float(mu) * phi) - want))
                minus = max(minus, abs(base * np.exp(-1j * float(mu) * phi) - want))
            rows.append((cell, plus, minus))
    return rows


def _phase_summary_note(rows) -> str:
    plus = max(r[1] for r in rows)
    minus = max(r[2] for r in rows)
    return (
        "helicity trailing phase: exp(+i(lam1-lam2)phi) reproduces every "
        f"frozen helicity cell (worst residual {plus:.3e}); the "
        f"exp(-i(lam1-lam2)phi) variant misses by {minus:.3e} at its worst "
        "cell, so the + sign is the implemented convention."
    )


def _phase_table_notes(rows) -> list:
    notes = ["residual table, trailing phase exp(+i(lam1-lam2)phi):"]
    for cell, plus, _ in rows:
        notes.append(
            f"  j={cell.j} {cell.channel.label()} "
            f"component={cell.component}: {plus:.3e}"
        )
    notes.append("residual table, trailing phase exp(-i(lam1-lam2)phi):")
    for cell, _, minus in rows:
        notes.append(
            f"  j={cell.j} {cell.channel.label()} "
            f"component={cell.component}: {minus:.3e}"
        )
    return notes


def _structure_notes() -> list:
    return [
        (
            "Gram normalization: the measured diagonal of the basis-state "
            f"Gram matrix is {MEASURED_GRAM_DIAGONAL!r} in every channel of "
            "both schemes; the value is measured by the gram checks, not "
            "assumed."
        ),
        (
            "helicity channels under boosts: no constant j-slot mixing "
            "matrix reproduces boosted helicity amplitudes (best-fit "
            "residual is order 0.3); the channel labels are frame-tied, so "
            "only rotations act within a helicity channel."
        ),
    ] + _helicity_structure_notes()


def _helicity_structure_notes() -> list:
    """Measured spin-j structure of the helicity basis on a probe grid."""
    grid = build_grid(12, 25)
    helicity = all_basis_states(grid, _SPEC, _PAIR_S, 1, "helicity")
    cross, blocks = _rotation_blocks(helicity, _random_su2(np.random.default_rng(114)))
    bare = max(float(np.abs(block - dj).max()) for _, dj, block in blocks)
    spin_orbit = all_basis_states(grid, _SPEC, _PAIR_S, 1, "spin-orbit")
    span = 0.0
    for st in helicity:
        conv = convert_slots_to_canonical(st)
        rest = conv.amplitudes - sum(
            inner_product(so, conv) * so.amplitudes for so in spin_orbit if so.j == st.j
        )
        norm2 = np.einsum("n,ncd->", grid.weights, np.abs(conv.amplitudes) ** 2)
        rest2 = np.einsum("n,ncd->", grid.weights, np.abs(rest) ** 2)
        span = max(span, float(np.sqrt(rest2 / norm2)))
    return [
        (
            "helicity channels under rotations: helicity basis states are the "
            "Jacob-Wick spin-j states, with slots in the frames "
            "R(phi, theta, -phi) and R(phi, theta, -phi) Ry(pi); a rotation "
            "keeps every (j, lam1, lam2) block (largest cross-block overlap "
            f"{cross:.3e} on the probe grid) and mixes its components by the "
            f"bare D(u) (worst deviation {bare:.3e})."
        ),
        (
            "scheme conversion: helicity basis states converted to canonical "
            "spin slots lie in the span of the orbital/spin states with the "
            f"same j (worst relative projection residual {span:.3e}); both "
            "schemes are bases of the same spin-j blocks."
        ),
    ]


def _fast_checks(canonical, rotation) -> list:
    """(name, check, tolerance) of the fast level; canonical and rotation
    are the :func:`_canonical_identity_draws` and :func:`_rotation_fixture`
    measurements that checks and notes share."""
    return [
        ("sl2c-homomorphism", _check_sl2c_homomorphism, 1e-10),
        ("metric-preservation", _check_metric_preservation, 1e-10),
        ("standard-boosts-restore-momentum", _check_boosts_restore_momentum, 1e-10),
        ("wigner-rotations-in-su2", _check_wigner_in_su2, 1e-10),
        ("canonical-rotation-wigner-identity", lambda: canonical[0], 1e-10),
        ("helicity-rotation-wigner-z-axis", _check_helicity_rotation_axis, 1e-10),
        ("rep-matrix-homomorphism", _check_rep_homomorphism, 1e-10),
        ("su2-cgc-orthogonality", _check_cgc_orthogonality, 1e-10),
        ("spherical-harmonic-identities", _check_spherical_harmonics, 1e-12),
        ("quadrature-harmonic-orthonormality", _check_quadrature_orthonormality, 1e-10),
        ("reference-table-reproduction", _check_reference_tables, 1e-12),
        ("channel-table-reproduction", _check_channel_table, 0.0),
        ("com-reduction-general-frame", _check_com_reduction, 1e-12),
        ("relative-momentum-normalization", _check_relative_momentum, 1e-10),
        ("boosted-pair-covariance-spin-orbit", _check_boosted_covariance, 1e-10),
        ("gram-diagonal", _check_gram_fast, 1e-8),
        ("rotation-channel-preservation", lambda: rotation[0], 1e-8),
        ("rotation-mixing-sign-conjugated", lambda: rotation[1], 1e-8),
        ("singlet-rotation-invariance", _check_singlet_invariance, 1e-10),
        ("bell-state-projection", _check_bell_projection, 1e-12),
        ("parseval-round-trip", _check_parseval, 1e-6),
        ("helicity-slot-round-trip", _check_helicity_roundtrip, 1e-12),
        ("json-round-trip", _check_json_roundtrip, 0.0),
    ]


class _Shared:
    """A measurement that checks and notes share, made on its first read:
    the first check that reads it carries its wall time."""

    def __init__(self, measure):
        self._measure, self._value = measure, None

    def __getitem__(self, index):
        if self._value is None:
            self._value = self._measure()
        return self._value[index]


def _timed(name, fn, tolerance) -> CheckResult:
    start = time.perf_counter()
    residual = float(fn())
    return CheckResult(name, residual, tolerance, time.perf_counter() - start)


def run(level: str = "fast") -> VerifyReport:
    """Run the verification suite and return the structured report."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    canonical = _Shared(_canonical_identity_draws)
    rotation = _Shared(_rotation_fixture)
    specs = _fast_checks(canonical, rotation)
    if level == "full":
        specs.append(("gram-orthonormality-full", lambda: _check_gram(2, 32, 64), 1e-8))
    checks = tuple(_timed(name, fn, tol) for name, fn, tol in specs)
    phase_rows = _helicity_phase_residuals()
    notes = [
        _canonical_identity_note(canonical),
        _phase_summary_note(phase_rows),
        _bare_mixing_note(rotation[2]),
    ]
    notes.extend(_variant_notes())
    notes.extend(_structure_notes())
    if level == "full":
        notes.extend(_phase_table_notes(phase_rows))
    return VerifyReport(level=level, checks=checks, notes=tuple(notes))
