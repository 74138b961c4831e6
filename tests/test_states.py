"""Tests for grid states: quadrature, rotations, decomposition, serialization."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from conftest import quaternion_su2, random_su2

from poincare_cgc import (
    GridMismatch,
    GridTooCoarse,
    HalfInt,
    HelicityChannel,
    InvalidChannel,
    NotARotation,
    SpinOrbitChannel,
    TwoParticleSpec,
    all_basis_states,
    apply_rotation,
    bell_state,
    build_com_basis_state,
    build_grid,
    canonical_boost,
    components,
    convert_slots_to_canonical,
    decompose_product_state,
    gram_matrix,
    inner_product,
    reconstruct,
    rep_matrix,
    state_from_json,
    state_to_json,
    su2_cgc,
)
from poincare_cgc.states import (
    MEASURED_GRAM_DIAGONAL,
    DeltaProductState,
    GridProductState,
    _helicity_frames,
    _helicity_wavefunction,
)
import poincare_cgc.states as states_module
from poincare_cgc.cgc import spin_orbit_com_table
from poincare_cgc.lorentz import polar_angles, spinor_to_lorentz

FERMION_PAIR = TwoParticleSpec.fermion_pair(1.0)
PAIR_S = 9.0


def fermion_states(grid, j_max, scheme):
    return all_basis_states(grid, FERMION_PAIR, PAIR_S, j_max, scheme)


def test_build_grid_shape_and_weights():
    grid = build_grid(10, 21)
    assert grid.size == 10 * 21
    assert grid.nodes.shape == (grid.size, 3)
    assert abs(float(grid.weights.sum()) - 4.0 * np.pi) < 1e-12
    norms = np.linalg.norm(grid.directions, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    assert grid.matches(build_grid(10, 21))
    assert not grid.matches(build_grid(10, 22))


def test_grid_integrates_harmonics_exactly():
    grid = build_grid(8, 17)
    y00 = sph_harm_y(0, 0, grid.theta, grid.phi)
    assert abs(np.sum(grid.weights * y00) - math.sqrt(4.0 * np.pi)) < 1e-13
    y21 = sph_harm_y(2, 1, grid.theta, grid.phi)
    y31 = sph_harm_y(3, 1, grid.theta, grid.phi)
    assert abs(np.sum(grid.weights * np.abs(y21) ** 2) - 1.0) < 1e-13
    assert abs(np.sum(grid.weights * y21.conj() * y31)) < 1e-13


@pytest.mark.parametrize("shape", [(1, 8), (4, 3), (0, 12), (2, 0)])
def test_build_grid_rejects_degenerate(shape):
    with pytest.raises(GridTooCoarse, match="degenerate"):
        build_grid(*shape)
    assert issubclass(GridTooCoarse, ValueError)


def test_basis_state_hand_values():
    grid = build_grid(8, 17)
    singlet = build_com_basis_state(
        grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0
    )
    a = 1.0 / math.sqrt(8.0 * np.pi)
    assert np.abs(singlet.amplitudes[:, 0, 1] - a).max() < 1e-14
    assert np.abs(singlet.amplitudes[:, 1, 0] + a).max() < 1e-14
    assert np.abs(singlet.amplitudes[:, 0, 0]).max() == 0.0
    assert np.abs(singlet.amplitudes[:, 1, 1]).max() == 0.0

    # j=0 from l=1, s=1: the aligned slot carries sqrt(1/8pi) sin(theta) e^{-i phi}
    pwave = build_com_basis_state(
        grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(1, 1), 0
    )
    want = a * np.sin(grid.theta) * np.exp(-1j * grid.phi)
    assert np.abs(pwave.amplitudes[:, 0, 0] - want).max() < 1e-14

    # the kinematic prefactor rides along as a label and is not folded in
    delta = 81.0 - 2.0 * (9.0 + 9.0 + 1.0) + 2.0
    assert singlet.norm_prefactor == pytest.approx(0.5 * math.sqrt(2.0) * delta**0.25)
    assert abs(complex(inner_product(singlet, singlet)) - MEASURED_GRAM_DIAGONAL) < 1e-13


def test_basis_state_validation():
    grid = build_grid(6, 13)
    with pytest.raises(InvalidChannel, match="not a channel label"):
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, "l=0,s=0", 0)
    with pytest.raises(InvalidChannel, match="does not couple"):
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(0, 0), 0)
    with pytest.raises(InvalidChannel, match="does not couple"):
        build_com_basis_state(
            grid, FERMION_PAIR, PAIR_S, 0, HelicityChannel(0.5, -0.5), 0
        )
    with pytest.raises(ValueError, match="threshold"):
        build_com_basis_state(grid, FERMION_PAIR, 3.9, 0, SpinOrbitChannel(0, 0), 0)


def test_inner_product_requires_matching_states():
    grid = build_grid(6, 13)
    other = build_grid(6, 14)
    a = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    b = build_com_basis_state(other, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    with pytest.raises(GridMismatch):
        inner_product(a, b)
    c = build_com_basis_state(grid, FERMION_PAIR, 16.0, 0, SpinOrbitChannel(0, 0), 0)
    with pytest.raises(ValueError, match="invariant masses"):
        inner_product(a, c)
    d = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, HelicityChannel(0.5, 0.5), 0)
    with pytest.raises(ValueError, match="schemes"):
        inner_product(a, d)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_gram_is_orthonormal_through_j2(scheme):
    grid = build_grid(16, 33)
    states = fermion_states(grid, 2, scheme)
    assert len(states) == 34
    gram = gram_matrix(states)
    assert np.abs(gram - gram.conj().T).max() < 1e-14
    assert np.abs(np.diag(gram) - MEASURED_GRAM_DIAGONAL).max() < 1e-10
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_basis_amplitudes_equal_the_closed_forms_bit_for_bit(scheme):
    """all_basis_states reads its harmonics from one table per call; every
    amplitude array must still be exactly the per-state closed form."""
    grid = build_grid(16, 33)
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction
    states = fermion_states(grid, 6, scheme)
    assert len(states) == 194
    for st in states:
        want = fn(FERMION_PAIR, st.j, st.channel, st.component, grid.theta, grid.phi)
        np.testing.assert_array_equal(st.amplitudes, want)
        np.testing.assert_array_equal(st.evaluator(grid.theta, grid.phi), want)


def test_gram_matrix_matches_pairwise_inner_products():
    """gram_matrix is the pairwise inner products, bit for bit above the
    diagonal, and both lie within 1e-14 of the same sums taken in extended
    precision (measured 2.7e-15; the sequential sum of the 8448 node-slot
    terms used before was 1.7e-14 off)."""
    grid = build_grid(16, 33)
    states = fermion_states(grid, 6, "spin-orbit")
    assert len(states) == 194
    gram = gram_matrix(states)
    pairwise = np.array([[inner_product(a, b) for b in states] for a in states])
    upper = np.triu_indices(len(states))
    np.testing.assert_array_equal(gram[upper], pairwise[upper])
    assert np.abs(gram - pairwise).max() < 1e-15
    flat = np.array([st.amplitudes.reshape(grid.size, -1) for st in states]).astype(np.clongdouble)
    weighted = flat * grid.weights.astype(np.longdouble)[None, :, None]
    exact = np.einsum(
        "in,kn->ik", weighted.conj().reshape(len(states), -1), flat.reshape(len(states), -1)
    )
    assert np.abs(gram - exact).max() < 1e-14


def test_gram_matrix_checks_every_state():
    """The list is checked once up front, with inner_product's errors, and
    a mismatched state is found even when it comes last."""
    grid = build_grid(6, 13)
    states = fermion_states(grid, 1, "spin-orbit")
    label = (0, SpinOrbitChannel(0, 0), 0)
    other_grid = build_com_basis_state(build_grid(6, 14), FERMION_PAIR, PAIR_S, *label)
    other_s = build_com_basis_state(grid, FERMION_PAIR, 16.0, *label)
    other_scheme = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, HelicityChannel(0.5, 0.5), 0)
    with pytest.raises(GridMismatch):
        gram_matrix(states + [other_grid])
    with pytest.raises(ValueError, match="invariant masses"):
        gram_matrix(states + [other_s])
    with pytest.raises(ValueError, match="schemes"):
        gram_matrix(states + [other_scheme])
    assert gram_matrix([]).shape == (0, 0)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_grid_decompose_and_reconstruct_match_the_entry_formula(scheme, rng):
    """Coefficients are the quadrature overlaps of the closed-form tables,
    and reconstruct sums coefficient times table, entry by entry."""
    grid = build_grid(16, 33)
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction
    amps = rng.normal(size=(grid.size, 2, 2)) + 1j * rng.normal(size=(grid.size, 2, 2))
    psi = GridProductState(grid=grid, spec=FERMION_PAIR, amplitudes=amps, scheme=scheme)
    dec = decompose_product_state(psi, FERMION_PAIR, PAIR_S, 6, scheme)
    assert len(dec.entries) == 194
    total = np.zeros_like(amps)
    for e in dec.entries:
        table = fn(FERMION_PAIR, e.j, e.channel, e.component, grid.theta, grid.phi)
        want = np.einsum("n,ncd,ncd->", grid.weights, table.conj(), amps)
        assert abs(e.coefficient - want) < 1e-14
        total += e.coefficient * table
    back = reconstruct(dec, grid, FERMION_PAIR)
    assert back.scheme == scheme
    assert np.abs(back.amplitudes - total).max() < 1e-14


@pytest.mark.parametrize("call", ["basis", "decompose"])
def test_j_max_is_validated_before_any_work(call, monkeypatch):
    """A negative j_max, or one that needs a spin above the supported
    maximum 10 (j_max + j1 + j2 for spin-orbit, j_max for helicity),
    raises ValueError before any amplitude is computed."""
    def no_work(*args):
        raise AssertionError("amplitudes were computed for an invalid j_max")

    grid = build_grid(6, 13)

    def run(j_max, scheme):
        if call == "basis":
            return all_basis_states(grid, FERMION_PAIR, PAIR_S, j_max, scheme)
        return decompose_product_state(bell_state("psi11"), FERMION_PAIR, PAIR_S, j_max, scheme)

    with monkeypatch.context() as patched:
        patched.setattr(states_module, "_amplitude_source", no_work)
        for scheme in ("spin-orbit", "helicity"):
            with pytest.raises(ValueError, match="nonnegative"):
                run(-1, scheme)
        with pytest.raises(ValueError, match="supported maximum 10"):
            run(10, "spin-orbit")
        with pytest.raises(ValueError, match="supported maximum 10"):
            run(11, "helicity")
    # the largest accepted values run through
    if call == "decompose":
        assert len(run(9, "spin-orbit").entries) > 0
        assert len(run(10, "helicity").entries) > 0


def test_loaded_helicity_rotation_matches_closed_form(rng):
    """Loaded tables rotate through fixed-axis interpolation: every j <= 1
    state of either scheme matches its closed-form rotation, including the
    helicity states with chi = -mu != 0, whose helicity slots are not
    band-limited at the south pole."""
    grid = build_grid(16, 33)
    u = random_su2(rng)
    for scheme in ("spin-orbit", "helicity"):
        for state in fermion_states(grid, 1, scheme):
            loaded = state_from_json(state_to_json(state), FERMION_PAIR)
            gap = apply_rotation(loaded, u).amplitudes - apply_rotation(state, u).amplitudes
            assert np.abs(gap).max() < 1e-12, (scheme, state.channel, state.component)


def test_apply_rotation_rejects_non_rotations(rng):
    grid = build_grid(6, 13)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    boost = canonical_boost(
        __import__("poincare_cgc").FourMomentum.on_shell(1.0, np.array([0.3, 0.0, 0.4]))
    )
    with pytest.raises(NotARotation):
        apply_rotation(state, boost.matrix)
    with pytest.raises(NotARotation):
        apply_rotation(state, rng.normal(size=(2, 2)))


def test_rotation_identity_and_composition(rng):
    grid = build_grid(12, 25)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 1)
    same = apply_rotation(state, np.eye(2))
    assert np.abs(same.amplitudes - state.amplitudes).max() < 1e-12
    u, v = random_su2(rng), random_su2(rng)
    two_step = apply_rotation(apply_rotation(state, u), v)
    one_step = apply_rotation(state, v @ u)
    assert np.abs(two_step.amplitudes - one_step.amplitudes).max() < 1e-10


def test_singlet_is_rotation_invariant(rng):
    grid = build_grid(10, 21)
    singlet = build_com_basis_state(
        grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0
    )
    rotated = apply_rotation(singlet, random_su2(rng))
    assert np.abs(rotated.amplitudes - singlet.amplitudes).max() < 1e-12


def test_spin_orbit_rotation_block_structure(rng):
    """Rotations stay inside each (j, l, s) block and mix components by
    the sign-conjugated spin-j rotation matrix Xi D^j(u) Xi, Xi = diag((-1)^chi).
    The bare D^j(u) does not reproduce the mixing; the conjugation by the
    alternating component signs is forced by the table phase convention."""
    grid = build_grid(16, 33)
    states = fermion_states(grid, 1, "spin-orbit")
    u = random_su2(rng)
    rotated = [apply_rotation(s, u) for s in states]
    overlap = np.array([[complex(inner_product(a, b)) for b in rotated] for a in states])

    worst_cross = 0.0
    worst_law = 0.0
    best_bare = np.inf
    blocks = sorted({(s.j, s.channel) for s in states}, key=lambda t: (t[0].twice, t[1].label()))
    for j, channel in blocks:
        idx = [i for i, s in enumerate(states) if (s.j, s.channel) == (j, channel)]
        block = overlap[np.ix_(idx, idx)]
        dj = rep_matrix(j, u)
        xi = np.diag([(-1.0) ** int(c) for c in components(j)])
        worst_law = max(worst_law, np.abs(block - xi @ dj @ xi).max())
        if j.twice > 0:  # on 1x1 blocks the sign conjugation cancels
            best_bare = min(best_bare, np.abs(block - dj).max())
    for i, a in enumerate(states):
        for k, b in enumerate(states):
            if (a.j, a.channel) != (b.j, b.channel):
                worst_cross = max(worst_cross, abs(overlap[i, k]))
    assert worst_cross < 1e-8
    assert worst_law < 1e-8
    assert best_bare > 0.1


def test_phi_shift_preserves_gram(rng):
    """A z-rotation by a grid period permutes azimuth nodes, so the rotated
    tables are exact even for loaded states with no closed-form evaluator."""
    grid = build_grid(12, 24)
    ang = 2.0 * np.pi * 5 / grid.n_phi
    uz = np.diag([np.exp(-0.5j * ang), np.exp(0.5j * ang)])
    for scheme in ("spin-orbit", "helicity"):
        states = fermion_states(grid, 1, scheme)
        if scheme == "spin-orbit":
            loaded = state_from_json(state_to_json(states[3]), FERMION_PAIR)
            assert loaded.evaluator is None
            states[3] = loaded
        before = gram_matrix(states)
        after = gram_matrix([apply_rotation(s, uz) for s in states])
        assert np.abs(after - before).max() < 1e-12


def test_loaded_state_rotation_matches_closed_form(rng):
    """Band-limited tables rotate exactly through the interpolating fallback."""
    grid = build_grid(12, 25)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(2, 1), -1)
    loaded = state_from_json(state_to_json(state), FERMION_PAIR)
    u = random_su2(rng)
    direct = apply_rotation(state, u)
    fallback = apply_rotation(loaded, u)
    assert np.abs(direct.amplitudes - fallback.amplitudes).max() < 1e-8


def test_helicity_rotation_structure(rng):
    """Per-particle helicity Wigner rotations are diagonal in the slot labels
    and unitary, and they preserve the total-spin blocks of the coupled
    states: helicity basis states are the Jacob-Wick spin-j states, so a
    rotated j=1 state stays orthogonal to j=0 and the j=0 state is invariant."""
    grid = build_grid(16, 33)
    u = random_su2(rng)
    h0 = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, HelicityChannel(0.5, 0.5), 0)
    h1 = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, HelicityChannel(0.5, 0.5), 0)
    r1 = apply_rotation(h1, u)
    # slots other than (+1/2, +1/2) stay exactly empty
    assert np.abs(r1.amplitudes[:, 0, 1]).max() == 0.0
    assert np.abs(r1.amplitudes[:, 1, :]).max() == 0.0
    # norm and total spin survive: the rotated j=1 state stays orthogonal to j=0
    assert abs(complex(inner_product(r1, r1)) - complex(inner_product(h1, h1))) < 1e-12
    assert abs(complex(inner_product(h0, r1))) < 1e-8
    r0 = apply_rotation(h0, u)
    assert np.abs(r0.amplitudes - h0.amplitudes).max() < 1e-12


def test_conversion_commutes_with_rotation(rng):
    """Rotating in helicity slots then converting to fixed-axis slots equals
    converting first and rotating with constant spin matrices."""
    grid = build_grid(14, 29)
    state = build_com_basis_state(
        grid, FERMION_PAIR, PAIR_S, 1, HelicityChannel(0.5, -0.5), 1
    )
    u = random_su2(rng)
    lhs = convert_slots_to_canonical(apply_rotation(state, u)).amplitudes

    rot3 = spinor_to_lorentz(u)[1:, 1:]
    th_pre, ph_pre = polar_angles(grid.directions @ rot3)
    amp_pre = state.evaluator(th_pre, ph_pre)
    f1, f2 = _helicity_frames(th_pre, ph_pre, FERMION_PAIR.j1, FERMION_PAIR.j2)
    conv_pre = np.einsum("nac,nbd,ncd->nab", f1, f2, amp_pre)
    d1 = rep_matrix(FERMION_PAIR.j1, u)
    d2 = rep_matrix(FERMION_PAIR.j2, u)
    rhs = np.einsum("ac,bd,ncd->nab", d1, d2, conv_pre)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_convert_slots_round_trip_and_gram(rng):
    grid = build_grid(12, 25)
    states = fermion_states(grid, 1, "helicity")
    converted = [convert_slots_to_canonical(s) for s in states]
    for c in converted:
        assert c.scheme == "spin-orbit"
        assert c.evaluator is None
    before = gram_matrix(states)
    after = gram_matrix(converted)
    assert np.abs(after - before).max() < 1e-12

    # node-by-node unitarity: undoing the helicity frames restores the table
    f1, f2 = _helicity_frames(grid.theta, grid.phi, FERMION_PAIR.j1, FERMION_PAIR.j2)
    for orig, conv in zip(states, converted):
        back = np.einsum("nca,ncd,ndb->nab", f1.conj(), conv.amplitudes, f2.conj())
        assert np.abs(back - orig.amplitudes).max() < 1e-12

    so = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    with pytest.raises(ValueError, match="helicity-scheme"):
        convert_slots_to_canonical(so)


def test_converted_states_leave_fixed_axis_span():
    """Slot conversion does not identify the two schemes state by state: no
    single (l, s) channel holds a converted helicity state. Its weight in
    channel (l, s) is the Jacob-Wick recoupling weight
    (2l+1)/(2j+1) |<l 0 s mu|j mu> <j1 lam1 j2 -lam2|s mu>|^2."""
    grid = build_grid(16, 33)
    so_states = fermion_states(grid, 1, "spin-orbit")
    lam1, lam2 = HalfInt(1), HalfInt(1)
    mu, j = lam1 - lam2, HalfInt(2)
    conv = convert_slots_to_canonical(
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, j, HelicityChannel(lam1, lam2), 1)
    )
    norm2 = complex(inner_product(conv, conv)).real
    weights = {}
    for s in so_states:
        if s.j == j:
            key = (int(s.channel.l), int(s.channel.s))
            weight = abs(complex(inner_product(s, conv))) ** 2 / norm2
            weights[key] = weights.get(key, 0.0) + weight
    want = {(1, 0): 1 / 2, (0, 1): 1 / 6, (1, 1): 0.0, (2, 1): 1 / 3}
    assert set(weights) == set(want)
    for (l, s), value in want.items():
        recoupling = (2 * l + 1) / (j.twice + 1) * abs(
            su2_cgc(j, l, s, mu, 0, mu)
            * su2_cgc(s, FERMION_PAIR.j1, FERMION_PAIR.j2, mu, lam1, -lam2)
        ) ** 2
        assert abs(recoupling - value) < 1e-12
        assert abs(weights[(l, s)] - value) < 1e-10
    assert abs(sum(weights.values()) - 1.0) < 1e-10


def test_singlet_projection_of_antialigned_state():
    """The antisymmetric anti-aligned pair at any direction projects onto the
    l=0 singlet with the direction-independent coefficient 1/(2 sqrt(pi))."""
    want = 1.0 / (2.0 * math.sqrt(np.pi))
    for theta, phi in [(0.0, 0.0), (1.1, 2.2), (2.4, 5.0)]:
        dec = decompose_product_state(
            bell_state("psi11", theta, phi), FERMION_PAIR, PAIR_S, 1
        )
        singlet = [
            e for e in dec.entries if e.j == HalfInt(0) and int(e.channel.l) == 0
        ]
        assert len(singlet) == 1
        assert abs(singlet[0].coefficient - want) < 1e-12
        # every l=1 j=0 and l=0 j=1 coefficient vanishes identically
        for e in dec.entries:
            pl = int(e.channel.l)
            if (e.j, pl) in ((HalfInt(0), 1), (HalfInt(2), 0)):
                assert abs(e.coefficient) < 1e-12


def test_aligned_state_has_no_singlet_content():
    dec = decompose_product_state(bell_state("psi00"), FERMION_PAIR, PAIR_S, 1)
    singlet = [e for e in dec.entries if e.j == HalfInt(0) and int(e.channel.l) == 0]
    assert abs(singlet[0].coefficient) == 0.0


def test_helicity_decomposition_of_antialigned_state():
    """The rotation-invariant singlet has the same helicity j=0 coefficients
    1/sqrt(8 pi) at every direction."""
    want = 1.0 / math.sqrt(8.0 * np.pi)
    for theta, phi in [(0.0, 0.0), (1.1, 2.2), (2.4, 5.0)]:
        dec = decompose_product_state(
            bell_state("psi11", theta, phi), FERMION_PAIR, PAIR_S, 0, scheme="helicity"
        )
        coeffs = {e.channel.label(): e.coefficient for e in dec.entries}
        assert len(coeffs) == 2
        for value in coeffs.values():
            assert abs(value - want) < 1e-12


def test_decompose_is_deterministic():
    runs = [
        decompose_product_state(bell_state("psi01", 0.9, 0.4), FERMION_PAIR, PAIR_S, 2)
        for _ in range(2)
    ]
    first = [(e.j, e.channel, e.component, e.coefficient) for e in runs[0].entries]
    second = [(e.j, e.channel, e.component, e.coefficient) for e in runs[1].entries]
    assert first == second


def test_decompose_validation():
    grid = build_grid(6, 13)
    basis = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    with pytest.raises(ValueError, match="not a product state"):
        decompose_product_state(basis, FERMION_PAIR, PAIR_S, 1)
    hgrid_state = GridProductState(
        grid=grid,
        spec=FERMION_PAIR,
        amplitudes=np.zeros((grid.size, 2, 2), dtype=complex),
        scheme="helicity",
    )
    with pytest.raises(ValueError, match="cannot decompose"):
        decompose_product_state(hgrid_state, FERMION_PAIR, PAIR_S, 1, scheme="spin-orbit")
    with pytest.raises(ValueError, match="threshold"):
        decompose_product_state(bell_state("psi11"), FERMION_PAIR, 3.5, 1)


def test_band_limited_round_trip(rng):
    """Content below the truncation reconstructs exactly and satisfies the
    quadrature Parseval identity."""
    grid = build_grid(12, 25)
    basis = [s for s in fermion_states(grid, 3, "spin-orbit") if int(s.channel.l) <= 2]
    coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    amps = sum(c * s.amplitudes for c, s in zip(coeffs, basis))
    psi = GridProductState(grid=grid, spec=FERMION_PAIR, amplitudes=amps)

    dec = decompose_product_state(psi, FERMION_PAIR, PAIR_S, 3)
    assert abs(dec.truncation_residual) < 1e-8
    assert dec.coeff_norm2 == pytest.approx(psi.norm2(), abs=1e-8)

    back = reconstruct(dec, grid, FERMION_PAIR)
    err2 = float(
        np.einsum("n,ncd->", grid.weights, np.abs(back.amplitudes - amps) ** 2)
    )
    assert math.sqrt(err2) < 1e-6


def test_json_round_trip_spin_orbit():
    grid = build_grid(8, 16)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 0)
    text = state_to_json(state)
    payload = json.loads(text)
    assert payload["scheme"] == "spin-orbit"
    assert payload["eta"] == [1.0, 1.0]
    assert payload["grid"] == {"n_theta": 8, "n_phi": 16}

    loaded = state_from_json(text, FERMION_PAIR)
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    assert loaded.j == state.j and loaded.channel == state.channel
    assert loaded.component == state.component and loaded.s == state.s
    assert state_to_json(loaded) == text


def test_json_round_trip_helicity():
    grid = build_grid(8, 16)
    state = build_com_basis_state(
        grid, FERMION_PAIR, PAIR_S, 1, HelicityChannel(0.5, -0.5), -1
    )
    text = state_to_json(state)
    assert json.loads(text)["eta"] == [0.5, -0.5]
    loaded = state_from_json(text, FERMION_PAIR)
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    assert loaded.channel == state.channel


def test_json_rejects_truncated_payload():
    grid = build_grid(8, 16)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, SpinOrbitChannel(0, 0), 0)
    payload = json.loads(state_to_json(state))
    payload["amplitudes"] = payload["amplitudes"][:-1]
    with pytest.raises(ValueError, match="entries"):
        state_from_json(json.dumps(payload), FERMION_PAIR)


@pytest.mark.parametrize(
    "field, change",
    [
        ("scheme", None),
        ("scheme", 3),
        ("s", None),
        ("s", "9"),
        ("j", None),
        ("j", 0.3),
        ("eta", None),
        ("eta", [1.0]),
        ("eta", [1.0, "1"]),
        ("component", True),
        ("grid", None),
        ("grid.n_theta", None),
        ("grid.n_phi", 16.0),
        ("amplitudes", None),
        ("amplitudes", [["1", 0.0]]),
    ],
)
def test_json_rejects_missing_or_ill_typed_fields(field, change):
    """A missing field (None here) or one of the wrong type raises ValueError naming it."""
    grid = build_grid(8, 16)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 0)
    payload = json.loads(state_to_json(state))
    *outer, name = field.split(".")
    target = payload[outer[0]] if outer else payload
    if change is None:
        del target[name]
    else:
        target[name] = change
    with pytest.raises(ValueError, match=repr(field)):
        state_from_json(json.dumps(payload), FERMION_PAIR)


def test_json_rejects_an_empty_or_non_object_payload():
    with pytest.raises(ValueError, match="'scheme'"):
        state_from_json("{}", FERMION_PAIR)
    with pytest.raises(ValueError, match="object"):
        state_from_json("[]", FERMION_PAIR)


@pytest.mark.parametrize("kind", ["delta", "grid"])
def test_decompose_rejects_a_state_of_other_spins(kind, monkeypatch):
    """A product state whose constituent spins differ from the spec's raises
    ValueError before any amplitude is computed."""
    vector_pair = TwoParticleSpec(s1=1.0, s2=1.0, j1=1, j2=1)
    grid = build_grid(4, 8)
    if kind == "delta":
        coefficients = np.zeros(vector_pair.spin_shape)
        coefficients[0, 0] = 1.0
        psi = DeltaProductState(spec=vector_pair, theta=0.3, phi=0.2, coefficients=coefficients)
    else:
        psi = GridProductState(
            grid=grid, spec=vector_pair,
            amplitudes=np.ones((grid.size,) + vector_pair.spin_shape, dtype=complex),
        )

    def no_work(*args):
        raise AssertionError("amplitudes were computed for a mismatched state")

    monkeypatch.setattr(states_module, "_amplitude_source", no_work)
    with pytest.raises(ValueError, match="spins"):
        decompose_product_state(psi, FERMION_PAIR, PAIR_S, 1)


def test_product_state_validation():
    with pytest.raises(ValueError, match="shape"):
        DeltaProductState(spec=FERMION_PAIR, theta=0.0, phi=0.0,
                          coefficients=np.ones((2, 3)))
    with pytest.raises(ValueError, match="sum"):
        DeltaProductState(spec=FERMION_PAIR, theta=0.0, phi=0.0,
                          coefficients=np.ones((2, 2)))
    grid = build_grid(6, 13)
    with pytest.raises(ValueError, match="shape"):
        GridProductState(grid=grid, spec=FERMION_PAIR,
                         amplitudes=np.zeros((grid.size, 2, 3)))
    with pytest.raises(ValueError, match="unknown product-state label"):
        bell_state("psi22")
    boson = TwoParticleSpec(s1=1.0, s2=1.0, j1=1, j2=0)
    with pytest.raises(ValueError, match="spin-1/2 pair"):
        bell_state("psi00", spec=boson)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_delta_state_rejects_non_finite_input(bad):
    for theta, phi in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            DeltaProductState(spec=FERMION_PAIR, theta=theta, phi=phi,
                              coefficients=np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ValueError, match="sum"):
        DeltaProductState(spec=FERMION_PAIR, theta=0.0, phi=0.0,
                          coefficients=np.array([[bad, 0.0], [0.0, 0.0]]))


def test_rotation_by_a_non_finite_matrix_is_rejected():
    state = build_com_basis_state(build_grid(6, 13), FERMION_PAIR, PAIR_S, 0,
                                  SpinOrbitChannel(0, 0), 0)
    with pytest.raises(NotARotation, match="not unitary"):
        apply_rotation(state, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _fresh_rotated_loaded_converted(grid, u):
    """A closed-form state in each scheme, rotated, loaded and converted."""
    out = []
    for channel in (SpinOrbitChannel(1, 1), HelicityChannel(0.5, -0.5)):
        fresh = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, channel, 1)
        loaded = state_from_json(state_to_json(fresh), FERMION_PAIR)
        out += [fresh, apply_rotation(fresh, u), loaded, apply_rotation(loaded, u)]
        if channel == HelicityChannel(0.5, -0.5):
            out.append(convert_slots_to_canonical(fresh))
    return out


def test_states_survive_a_pickle_round_trip(rng):
    """States are plain data: every kind pickles, and the copy carries the
    same table, labels and rotation and rotates to the same bits."""
    grid = build_grid(8, 17)
    u, v = random_su2(rng), random_su2(rng)
    for state in _fresh_rotated_loaded_converted(grid, u):
        copy = pickle.loads(pickle.dumps(state))
        np.testing.assert_array_equal(copy.amplitudes, state.amplitudes)
        assert (copy.scheme, copy.j, copy.channel, copy.component, copy.closed_form) == (
            state.scheme, state.j, state.channel, state.component, state.closed_form
        )
        if state.rotation is None:
            assert copy.rotation is None
        else:
            np.testing.assert_array_equal(copy.rotation, state.rotation)
            assert not copy.rotation.flags.writeable
        np.testing.assert_array_equal(
            apply_rotation(copy, v).amplitudes, apply_rotation(state, v).amplitudes
        )


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_rotations_compose_bit_for_bit(scheme, rng):
    """A closed-form state keeps the composed rotation and is evaluated
    once from its labels, so u then v is the rotation by v @ u exactly."""
    grid = build_grid(12, 25)
    u, v = random_su2(rng), random_su2(rng)
    for state in fermion_states(grid, 2, scheme):
        twice = apply_rotation(apply_rotation(state, u), v)
        once = apply_rotation(state, v @ u)
        np.testing.assert_array_equal(twice.amplitudes, once.amplitudes)
        np.testing.assert_array_equal(twice.rotation, v @ u)
        np.testing.assert_array_equal(
            twice.evaluator(grid.theta, grid.phi), once.amplitudes
        )


def test_rotation_is_a_private_copy(rng):
    """Mutating the caller's matrix afterwards leaves the state unchanged."""
    grid = build_grid(8, 17)
    u = random_su2(rng)
    state = apply_rotation(
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 1), u
    )
    want = state.evaluator(grid.theta, grid.phi)
    kept = u.copy()
    u[:] = np.eye(2)
    np.testing.assert_array_equal(state.rotation, kept)
    np.testing.assert_array_equal(state.evaluator(grid.theta, grid.phi), want)
    with pytest.raises(ValueError):
        state.rotation[0, 0] = 0.0


def test_tables_have_no_evaluator(rng):
    """Loaded, rotated loaded and converted states are tables: no closed form
    and no recorded rotation."""
    grid = build_grid(8, 17)
    for state in _fresh_rotated_loaded_converted(grid, random_su2(rng)):
        if state.closed_form:
            assert state.evaluator is not None
        else:
            assert state.evaluator is None
            assert state.rotation is None


@pytest.fixture(scope="module")
def loaded_basis_8x17():
    """Every j <= 1 basis state of both schemes, loaded back from JSON on 8x17."""
    grid = build_grid(8, 17)
    return [
        state_from_json(state_to_json(state), FERMION_PAIR)
        for scheme in ("spin-orbit", "helicity")
        for state in fermion_states(grid, 1, scheme)
    ]


_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(qu=_quaternions, qv=_quaternions)
def test_loaded_rotations_compose(loaded_basis_8x17, qu, qv):
    """Interpolated rotation of a loaded table composes: u then v equals
    v @ u to 1e-12 for all 28 j <= 1 states (measured 4e-15)."""
    u, v = quaternion_su2(qu), quaternion_su2(qv)
    assert len(loaded_basis_8x17) == 28
    for state in loaded_basis_8x17:
        twice = apply_rotation(apply_rotation(state, u), v)
        once = apply_rotation(state, v @ u)
        assert np.abs(twice.amplitudes - once.amplitudes).max() < 1e-12
