"""Tests for grid states: quadrature, rotations, decomposition, serialization."""

import dataclasses
import json
import math
import pickle
import tracemalloc

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
    InvalidOrbitalLabel,
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
    _gauss_legendre,
    _harmonic_fit,
    _helicity_frames,
    _helicity_wavefunction,
    _little_group_phase,
    _preimages,
    _sandwich,
)
import poincare_cgc.cgc as cgc_module
import poincare_cgc.labels as labels_module
import poincare_cgc.states as states_module
import poincare_cgc.su2 as su2_module
from poincare_cgc.cgc import spin_orbit_com_table
from poincare_cgc.lorentz import polar_angles, spinor_to_lorentz
from poincare_cgc.su2 import _harmonic_table

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


@pytest.mark.parametrize(
    "sizes", [(16.7, 33), (np.float64(7.5), 15), (8, 16.0), (1.5, 8), ("8", 16)]
)
def test_build_grid_rejects_non_integer_sizes(sizes):
    """Sizes are never rounded: a non-integer raises ValueError naming it,
    before the coarseness test, while numpy integers are accepted."""
    with pytest.raises(ValueError, match="must be integers") as err:
        build_grid(*sizes)
    assert not isinstance(err.value, GridTooCoarse)
    assert repr(sizes[0]) in str(err.value)
    grid = build_grid(np.int64(6), np.int32(13))
    assert (grid.n_theta, grid.n_phi, grid.size) == (6, 13, 78)
    assert type(grid.n_theta) is int


def test_build_grid_reads_a_read_only_memoised_rule():
    """build_grid reads its Gauss-Legendre rule from a memo per n_theta. The
    memo's arrays are read-only, and the grid is byte for byte the one a
    fresh leggauss gives."""
    for n_theta, n_phi in ((2, 4), (8, 17), (16, 33), (64, 129)):
        x, wx = _gauss_legendre(n_theta)
        assert _gauss_legendre(n_theta)[0] is x
        assert not x.flags.writeable and not wx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
        fresh_x, fresh_w = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(fresh_x[::-1])
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        w = np.broadcast_to((fresh_w[::-1] * (2.0 * np.pi / n_phi))[:, None], th.shape)
        grid = build_grid(n_theta, n_phi)
        for got, want in ((grid.theta, th), (grid.phi, ph), (grid.weights, w)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


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


def test_basis_computes_its_prefactor_once_per_call(monkeypatch):
    """The threshold test and the prefactor run once per call, not once per
    state; every state carries that one value."""
    calls = []
    normalization = states_module.com_normalization

    def counted(*args):
        calls.append(args)
        return normalization(*args)

    monkeypatch.setattr(states_module, "com_normalization", counted)
    grid = build_grid(6, 13)
    for scheme in ("spin-orbit", "helicity"):
        calls.clear()
        basis = all_basis_states(grid, FERMION_PAIR, PAIR_S, 2, scheme)
        assert len(calls) == 1 and len(basis) > 1
        assert {state.norm_prefactor for state in basis} == {normalization(PAIR_S, 1.0, 1.0)}
    calls.clear()
    build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 0)
    assert len(calls) == 1


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


# the label kernel's inputs: constituent spins with the largest j tested
KERNEL_SPECS = [
    pytest.param(TwoParticleSpec(1.0, 1.0, 0.5, 0.5), 3, id="spins-half-half"),
    pytest.param(TwoParticleSpec(1.0, 2.0, 1, 0.5), 2.5, id="spins-1-half"),
    pytest.param(TwoParticleSpec(1.0, 1.0, 1, 1), 2, id="spins-1-1"),
    pytest.param(TwoParticleSpec(2.0, 1.0, 1.5, 1), 2.5, id="spins-3half-1"),
]

# the angles the kernel is called at: grid axes, the phi = 0 rings, scalars
KERNEL_ANGLES = {
    "grid-16x33": build_grid(16, 33).axes,
    "grid-10x6": build_grid(10, 6).axes,
    "rings": (build_grid(16, 33).axes[0], 0.0),
    "theta-0": (0.0, 1.3),
    "theta-pi": (math.pi, 2.1),
    "phi-0": (0.7, 0.0),
}


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize("angles", list(KERNEL_ANGLES))
@pytest.mark.parametrize("spec, j_max", KERNEL_SPECS)
def test_label_kernel_equals_the_closed_forms_byte_for_byte(spec, j_max, angles, scheme):
    """_label_tables evaluates each factor once and forms every label's
    table from them. Each table, in the kernel's own block or in a
    caller's (which takes the one-product path at array angles), has the
    bytes of its per-label closed form (tobytes, so signed zeros count):
    on grid axes, an aliased grid's included, on the phi = 0 rings, and
    at scalar angles, where numpy's 0-d arithmetic rounds complex
    products apart from its array loops."""
    theta, phi = KERNEL_ANGLES[angles]
    layout = labels_module._basis_layout(spec, scheme, HalfInt.of(j_max))
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction
    tables = labels_module._label_tables(layout, theta, phi)
    stacked = np.empty((len(tables),) + tables[0].shape, dtype=complex)
    labels_module._label_tables(layout, theta, phi, stacked)
    for (j, channel, chi), table, row in zip(layout.labels, tables, stacked):
        want = fn(spec, j, channel, chi, theta, phi)
        assert table.shape == want.shape, (j, channel, chi)
        assert table.tobytes() == want.tobytes(), (j, channel, chi)
        assert row.tobytes() == want.tobytes(), (j, channel, chi)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_an_empty_basis_runs_end_to_end(scheme):
    """Spins (1/2, 1) couple only to half-integer j, so j_max = 0 leaves
    no label: no basis state, a (0, 0) Gram matrix, decompositions of a
    grid and a delta state without entries, and zero reconstructions."""
    spec = TwoParticleSpec(1.0, 1.0, 0.5, 1)
    grid = build_grid(8, 17)
    states = all_basis_states(grid, spec, PAIR_S, 0, scheme)
    assert states == []
    gram = gram_matrix(states)
    assert gram.shape == (0, 0) and gram.dtype == complex
    amplitudes = np.ones((grid.size,) + spec.spin_shape, dtype=complex)
    coefficients = np.zeros(spec.spin_shape)
    coefficients[0, 1] = 1.0
    for psi in (GridProductState(grid=grid, spec=spec, amplitudes=amplitudes, scheme=scheme),
                DeltaProductState(spec=spec, theta=0.4, phi=1.2, coefficients=coefficients)):
        dec = decompose_product_state(psi, spec, PAIR_S, 0, scheme)
        assert dec.entries == () and dec.coeff_norm2 == 0.0
        back = reconstruct(dec, grid, spec)
        assert back.scheme == scheme
        assert back.amplitudes.shape == (grid.size,) + spec.spin_shape
        assert not back.amplitudes.any()


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_basis_tables_are_disjoint_and_peak_near_their_size(scheme):
    """all_basis_states writes every state's table into one block, made
    once the harmonic table or the d^j entries are evaluated. On 32x64 at
    j <= 6 its tracemalloc peak stays within the 194 tables (24.25 MiB)
    plus 3 MiB (26.35 MiB spin-orbit, whose 2 MiB harmonic table lives
    through the pass, and 24.5 MiB helicity measured), and no two states
    share memory. A kept state keeps the whole block; .copy() detaches it."""
    grid = build_grid(32, 64)
    fermion_states(grid, 6, scheme)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = fermion_states(grid, 6, scheme)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(states) == 194
    assert peak <= sum(st.amplitudes.nbytes for st in states) + 3 * 2**20
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert not np.shares_memory(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_basis_tables_are_consecutive_rows_of_one_block(scheme):
    """One all_basis_states call makes one C-contiguous block: state i's
    table is its row i, viewed as (nodes,) + spin_shape, so a basis takes
    one allocation, not one per state."""
    states = fermion_states(build_grid(8, 17), 2, scheme)
    block = states[0].amplitudes.base
    assert block is not None and block.flags.c_contiguous
    assert block.shape[0] == len(states)
    assert block.nbytes == sum(st.amplitudes.nbytes for st in states)
    start = block.__array_interface__["data"][0]
    for i, st in enumerate(states):
        assert st.amplitudes.base is block and st.amplitudes.flags.c_contiguous
        assert st.amplitudes.__array_interface__["data"][0] == start + i * st.amplitudes.nbytes


GRID_SHAPES = [(16, 33), (8, 17), (32, 64)]


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_axes_broadcast_to_the_nodes(shape):
    """axes are the grid's (n_theta, 1) polar and (1, n_phi) azimuthal
    nodes; broadcast and raveled they are the nodes themselves."""
    grid = build_grid(*shape)
    theta, phi = grid.axes
    assert theta.shape == (shape[0], 1) and phi.shape == (1, shape[1])
    th, ph = np.broadcast_arrays(theta, phi)
    np.testing.assert_array_equal(th.ravel(), grid.theta)
    np.testing.assert_array_equal(ph.ravel(), grid.phi)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_tables_equal_node_by_node_evaluation(shape, scheme):
    """Basis tables and slot conversions are evaluated on the grid's axes;
    they must equal, bit for bit, the same functions evaluated at every
    node (grid.theta, grid.phi): the conversion is _sandwich with the
    frames built at the node arrays."""
    grid = build_grid(*shape)
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction
    f1, f2 = _helicity_frames(grid.theta, grid.phi, FERMION_PAIR.j1, FERMION_PAIR.j2)
    for st in fermion_states(grid, 3, scheme):
        want = fn(FERMION_PAIR, st.j, st.channel, st.component, grid.theta, grid.phi)
        np.testing.assert_array_equal(st.amplitudes, want)
        if scheme == "helicity":
            np.testing.assert_array_equal(
                convert_slots_to_canonical(st).amplitudes,
                _sandwich(f1, want, f2),
            )


def _extended_gram(states) -> np.ndarray:
    """The quadrature inner products of the states, summed in extended precision."""
    grid = states[0].grid
    flat = np.array([st.amplitudes.reshape(grid.size, -1) for st in states]).astype(np.clongdouble)
    weighted = flat * grid.weights.astype(np.longdouble)[None, :, None]
    return np.einsum(
        "in,kn->ik", weighted.conj().reshape(len(states), -1), flat.reshape(len(states), -1)
    )


def _assert_gram_kernel(states) -> None:
    """gram_matrix within 2e-15 of the extended-precision sums, inner_product
    within 1e-14 of them, the two within 1e-14 of each other, and the Gram
    matrix Hermitian bit for bit with a real diagonal."""
    gram = gram_matrix(states)
    pairwise = np.array([[inner_product(a, b) for b in states] for a in states])
    exact = _extended_gram(states)
    assert np.abs(gram - exact).max() < 2e-15
    assert np.abs(pairwise - exact).max() < 1e-14
    assert np.abs(gram - pairwise).max() < 1e-14
    np.testing.assert_array_equal(gram, gram.conj().T)
    assert not gram.diagonal().imag.any()


def _tables(states) -> list:
    """The states as plain tables, which gram_matrix sums over the samples."""
    return [dataclasses.replace(st, closed_form=False) for st in states]


def test_gram_matrix_matches_pairwise_inner_products():
    """gram_matrix sums real BLAS products over the phi = 0 rings of
    closed-form states; inner_product is one pairwise sum per pair.
    Against the sums over the samples in extended precision the Gram
    matrix is off by 7.2e-16 (spin-orbit) and 4.6e-16 (helicity), and the
    pairwise matrix by 3.2e-16 and 2.1e-16."""
    grid = build_grid(16, 33)
    for scheme in ("spin-orbit", "helicity"):
        states = fermion_states(grid, 6, scheme)
        assert len(states) == 194
        _assert_gram_kernel(states)


def test_inner_product_is_a_pairwise_sum():
    """inner_product adds its weighted products by numpy's pairwise sum.
    On 32x64 the overlaps among the j = 6 helicity states and among the
    j = 4 spin-orbit states are within 1e-15 of the extended-precision
    sums (1.8e-16 and 3.0e-16 measured); one vdot of the weighted table
    against the other was off by 1.0e-14 and 7.0e-15 there."""
    grid = build_grid(32, 64)
    for scheme, j in (("helicity", 6), ("spin-orbit", 4)):
        states = [st for st in fermion_states(grid, 6, scheme) if st.j == HalfInt.of(j)]
        pairwise = np.array([[inner_product(a, b) for b in states] for a in states])
        assert np.abs(pairwise - _extended_gram(states)).max() < 1e-15, scheme


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize("j1, j2, j_max", [(1, 0.5, 2.5), (1, 1, 2)])
def test_gram_of_higher_constituent_spins(j1, j2, j_max, scheme):
    """Spin-(1, 1/2) and spin-(1, 1) bases, 6 and 9 slots to a state, take
    the ring kernel as the spin-1/2 pair does: within 2e-15 of the sums
    over the samples in extended precision, and orthonormal."""
    spec = TwoParticleSpec(1.0, 1.0, j1, j2)
    states = all_basis_states(build_grid(16, 33), spec, PAIR_S, j_max, scheme)
    _assert_gram_kernel(states)
    assert np.abs(gram_matrix(states) - np.eye(len(states))).max() < 1e-12


def _extended_ring_gram(states) -> np.ndarray:
    """n_phi sum_theta w_theta sum_slots conj(A_i) A_k on the phi = 0 rings,
    in extended precision, for components that agree mod n_phi; 0 otherwise."""
    grid = states[0].grid
    rings = np.array([st.amplitudes.reshape(grid.n_theta, grid.n_phi, -1)[:, 0] for st in states])
    w = grid.n_phi * grid.weights[:: grid.n_phi].astype(np.longdouble)
    gram = np.einsum("t,its,kts->ik", w, rings.astype(np.clongdouble).conj(), rings)
    chi = np.array([st.component.twice for st in states])
    gram[(chi[:, None] - chi[None, :]) % (2 * grid.n_phi) != 0] = 0
    return gram


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize("shape", [(10, 6), (12, 8)])
def test_gram_on_an_aliased_grid(shape, scheme):
    """With n_phi <= 2 j_max the trapezoid rule in phi aliases components
    that differ by n_phi, so off-diagonal entries reach 1. The Gram matrix
    is exactly 0 between components that differ mod n_phi, Hermitian bit
    for bit, and within 2e-15 of the ring sums in extended precision. The
    sums over the samples are no longer exact there, since the samples'
    rounded phases do not cancel between aliased components: the Gram
    matrix is within 5e-15 of them in extended precision (3.2e-15
    measured on 10x6)."""
    grid = build_grid(*shape)
    states = fermion_states(grid, 6, scheme)
    gram = gram_matrix(states)
    chi = np.array([st.component.twice for st in states])
    apart = (chi[:, None] - chi[None, :]) % (2 * grid.n_phi) != 0
    assert not gram[apart].any()
    assert np.abs(gram - np.diag(np.diag(gram))).max() > 0.9
    np.testing.assert_array_equal(gram, gram.conj().T)
    assert not gram.diagonal().imag.any()
    assert np.abs(gram - _extended_ring_gram(states)).max() < 2e-15
    assert np.abs(gram - _extended_gram(states)).max() < 5e-15


def test_rotated_loaded_and_mixed_lists_take_the_sampled_kernel(monkeypatch, rng):
    """Only a list of unrotated closed-form states is summed on its rings,
    from its labels: every block's columns are n_theta nodes long. A
    rotated, a JSON-loaded or a mixed list is one block over the samples,
    its columns as long as the grid, and G is byte for byte that of the
    same tables with closed_form cleared."""
    grid = build_grid(8, 17)
    lengths = []
    parts = states_module._gram_parts

    def measured(flats, root_w):
        # the nodes a column spans, at four spin slots a node
        lengths.append(root_w.size // 4)
        return parts(flats, root_w)

    monkeypatch.setattr(states_module, "_gram_parts", measured)
    u = random_su2(rng)
    for scheme in ("spin-orbit", "helicity"):
        states = fermion_states(grid, 2, scheme)
        lengths.clear()
        gram_matrix(states)
        assert lengths and set(lengths) == {grid.n_theta}
        rotated = [apply_rotation(st, u) for st in states]
        loaded = [state_from_json(state_to_json(st), FERMION_PAIR) for st in states]
        for listed in (rotated, loaded, states[:-1] + loaded[-1:], states[:-1] + rotated[-1:]):
            lengths.clear()
            gram = gram_matrix(listed)
            assert lengths == [grid.size]
            assert gram.tobytes() == gram_matrix(_tables(listed)).tobytes()


def test_gram_matrix_takes_a_partial_last_chunk():
    """A spin-(1, 1/2) pair on 6x13 has 468 node-slot entries per table,
    not a multiple of the chunk, so the sampled kernel ends in a short
    chunk of 468 % 128 = 84 entries, in either scheme."""
    spec = TwoParticleSpec(1.0, 1.0, 1, 0.5)
    grid = build_grid(6, 13)
    assert 468 % states_module._GRAM_CHUNK != 0
    for scheme in ("spin-orbit", "helicity"):
        states = _tables(all_basis_states(grid, spec, PAIR_S, 2.5, scheme))
        assert states[0].amplitudes.size == 468
        _assert_gram_kernel(states)
        _assert_gram_kernel(states[:1])
    empty = gram_matrix([])
    assert empty.shape == (0, 0) and empty.dtype == complex


def test_gram_matrix_scratch_stays_small():
    """The 194-state j <= 6 basis on 32x64 is 25 MB; the Gram matrix is
    built in at most 2 MiB of new memory, 0.6 MB of it the result. On the
    rings of the closed-form states 1.1 MB was measured for either scheme,
    and over the samples of the same tables 1.8 MB, so the tables are
    never stacked whole."""
    grid = build_grid(32, 64)
    for scheme in ("spin-orbit", "helicity"):
        basis = fermion_states(grid, 6, scheme)
        for states in (basis, _tables(basis)):
            gram_matrix(states[:2])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                gram = gram_matrix(states)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert gram.shape == (194, 194)
            assert peak <= 2 * 2**20, (scheme, states[0].closed_form)


def _single_block_gram(states) -> np.ndarray:
    """The Gram kernel on the raveled tables as one block: chunks of
    _GRAM_CHUNK node-slot entries, each split into sqrt(w)-scaled real and
    imaginary parts, Re G = Br Br^T + Bi Bi^T and Im G = M - M^T."""
    grid, n = states[0].grid, len(states)
    flats = [st.amplitudes.reshape(-1) for st in states]
    root_w = np.repeat(np.sqrt(grid.weights), flats[0].size // grid.size)
    sym, cross = np.zeros((n, n)), np.zeros((n, n))
    for lo in range(0, flats[0].size, states_module._GRAM_CHUNK):
        z = np.array([f[lo : lo + states_module._GRAM_CHUNK] for f in flats])
        br, bi = z.real * root_w[lo : lo + z.shape[1]], z.imag * root_w[lo : lo + z.shape[1]]
        sym += br @ br.T
        sym += bi @ bi.T
        cross += br @ bi.T
    out = np.empty((n, n), dtype=complex)
    out.real = sym
    out.imag = cross - cross.T
    return out


def _slot_of(state) -> int:
    """The one populated slot of a helicity basis state, raveled."""
    (slot,) = np.flatnonzero(np.abs(state.amplitudes.reshape(state.grid.size, -1)).max(axis=0))
    return int(slot)


@pytest.mark.parametrize("shape", [(16, 33), (32, 64)])
def test_sampled_gram_is_one_block_bit_for_bit(shape):
    """The sampled kernel takes a list of tables as one block over every
    slot, in either scheme: their Gram matrix is the single-block
    kernel's byte for byte."""
    grid = build_grid(*shape)
    for scheme in ("spin-orbit", "helicity"):
        states = _tables(fermion_states(grid, 6, scheme))
        assert gram_matrix(states).tobytes() == _single_block_gram(states).tobytes(), scheme


def test_helicity_gram_is_exactly_zero_between_slots():
    """A helicity basis state populates its own slot only, so every entry
    of its Gram matrix between two slots is exactly 0, on the rings and
    over the samples alike: one factor of every product is 0."""
    grid = build_grid(16, 33)
    states = fermion_states(grid, 6, "helicity")
    slots = np.array([_slot_of(st) for st in states])
    assert sorted(set(slots)) == [0, 1, 2, 3]
    between = slots[:, None] != slots[None, :]
    for listed in (states, _tables(states)):
        gram = gram_matrix(listed)
        assert not gram[between].real.any() and not gram[between].imag.any()
        assert np.abs(gram[~between]).max() > 0.5


def test_a_state_in_two_slots_joins_their_blocks():
    """A JSON-loaded table populated in the slots of two helicity basis
    states overlaps each of them by 1, summed over the samples beside the
    closed-form states of every slot."""
    grid = build_grid(8, 17)
    states = fermion_states(grid, 2, "helicity")
    a, b = states[0], next(st for st in states if _slot_of(st) != _slot_of(states[0]))
    payload = json.loads(state_to_json(a))
    flat = (a.amplitudes + b.amplitudes).ravel()
    payload["amplitudes"] = np.stack([flat.real, flat.imag], axis=-1).tolist()
    both = state_from_json(json.dumps(payload), FERMION_PAIR)
    listed = states + [both]
    _assert_gram_kernel(listed)
    gram = gram_matrix(listed)
    assert abs(gram[0, -1] - 1.0) < 1e-12
    assert abs(gram[states.index(b), -1] - 1.0) < 1e-12


def test_a_state_with_no_populated_slot_has_a_zero_row():
    """An all-zero table has a row and a column of exact zeros, and the
    other entries are those of the list without it."""
    grid = build_grid(6, 13)
    states = _tables(fermion_states(grid, 1, "helicity"))
    zero = dataclasses.replace(states[1], amplitudes=np.zeros_like(states[1].amplitudes))
    gram = gram_matrix(states[:1] + [zero] + states[1:])
    assert not gram[1].any() and not gram[:, 1].any()
    rest = np.delete(np.delete(gram, 1, axis=0), 1, axis=1)
    assert rest.tobytes() == gram_matrix(states).tobytes()
    assert not gram_matrix([zero]).any()
    # a table that is zero at the first node only
    late = states[1].amplitudes.copy()
    late[0] = 0.0
    _assert_gram_kernel(states + [dataclasses.replace(states[1], amplitudes=late)])


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


@pytest.mark.parametrize(
    "spec, label",
    [
        (TwoParticleSpec.fermion_pair(1.5), (0, SpinOrbitChannel(0, 0), 0)),
        (TwoParticleSpec(1.0, 1.0, 1.5, 0), (1.5, SpinOrbitChannel(0, 1.5), 1.5)),
        (TwoParticleSpec(1.0, 1.0, 1, 0.5), (0.5, SpinOrbitChannel(0, 0.5), 0.5)),
    ],
    ids=["other-masses", "same-slot-count", "other-slot-count"],
)
def test_overlaps_across_specs_raise(spec, label):
    """States of different constituents have no overlap: other masses at
    the same s, spins (3/2, 0) whose 4 slots match a spin-1/2 pair's, and
    spins (1, 1/2) whose table has another size. Each raises ValueError
    naming both pairs of constituents, before any arithmetic, also when
    the odd state comes last in a Gram list."""
    grid = build_grid(6, 13)
    states = fermion_states(grid, 1, "spin-orbit")
    other = build_com_basis_state(grid, spec, PAIR_S, *label)
    for call in (
        lambda: inner_product(states[0], other),
        lambda: inner_product(other, states[0]),
        lambda: gram_matrix(states + [other]),
        lambda: gram_matrix([other] + states),
    ):
        with pytest.raises(ValueError, match="different constituents") as err:
            call()
        assert f"spins ({spec.j1}, {spec.j2}) with masses squared ({spec.s1}, {spec.s2})" in str(err.value)
        assert "spins (1/2, 1/2) with masses squared (1.0, 1.0)" in str(err.value)


@pytest.mark.parametrize("scheme, shape", [
    pytest.param("spin-orbit", (16, 33), id="spin-orbit"),
    pytest.param("helicity", (16, 33), id="helicity"),
    pytest.param("spin-orbit", (10, 6), id="spin-orbit-10x6"),
    pytest.param("helicity", (10, 6), id="helicity-10x6"),
    pytest.param("spin-orbit", (12, 8), id="spin-orbit-12x8"),
    pytest.param("helicity", (12, 8), id="helicity-12x8"),
])
def test_grid_decompose_and_reconstruct_match_the_entry_formula(scheme, shape, rng):
    """Coefficients are the quadrature overlaps of the closed-form tables,
    and reconstruct sums coefficient times table, entry by entry. The DFT
    over phi is taken at each order chi - sigma itself, not mod n_phi, so
    grids that alias components (10x6, 12x8) need nothing more (4.0e-15
    at worst measured there)."""
    grid = build_grid(*shape)
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


def _grid_product_state(grid, scheme, rng) -> GridProductState:
    """A normalized random grid state with slots in the scheme."""
    amps = rng.normal(size=(grid.size, 2, 2)) + 1j * rng.normal(size=(grid.size, 2, 2))
    amps /= math.sqrt(float(np.einsum("n,ncd->", grid.weights, np.abs(amps) ** 2)))
    return GridProductState(grid=grid, spec=FERMION_PAIR, amplitudes=amps, scheme=scheme)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_grid_coefficients_match_extended_overlaps(scheme, rng):
    """Each grid coefficient is a ring of a basis table summed against the
    DFT of the weighted state over phi. On 32x64 the j <= 6 coefficients
    of a normalized state are within 5e-16 of the table-by-table overlaps
    summed in extended precision (1.2e-17 spin-orbit and 4.5e-17 helicity
    measured)."""
    grid = build_grid(32, 64)
    psi = _grid_product_state(grid, scheme, rng)
    dec = decompose_product_state(psi, FERMION_PAIR, PAIR_S, 6, scheme)
    weighted = grid.weights.astype(np.longdouble)[:, None, None] * psi.amplitudes.astype(np.clongdouble)
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction
    for e in dec.entries:
        table = fn(FERMION_PAIR, e.j, e.channel, e.component, grid.theta, grid.phi)
        exact = np.sum(table.astype(np.clongdouble).conj() * weighted)
        assert abs(e.coefficient - exact) < 5e-16


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_grid_decomposition_streams_its_tables(scheme, rng):
    """The 194 j <= 6 tables on 32x64 would stack to 25 MB; a decomposition
    reads only their phi = 0 rings, in at most 4 MiB of new memory (1.4 MB
    measured for either scheme)."""
    grid = build_grid(32, 64)
    psi = _grid_product_state(grid, scheme, rng)
    decompose_product_state(psi, FERMION_PAIR, PAIR_S, 1, scheme)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dec = decompose_product_state(psi, FERMION_PAIR, PAIR_S, 6, scheme)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(dec.entries) == 194
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_delta_coefficients_are_per_label_sums(scheme, monkeypatch):
    """A delta state's coefficients are per-label sums of conjugated
    amplitude times slots, bit for bit (the CLI's decompose output is
    pinned to those bytes); the grid branch's separation is never taken."""
    psi = bell_state("psi01", 0.9, 0.4)
    slots = psi.coefficients
    if scheme == "helicity":
        slots = states_module._fixed_to_helicity_slots(FERMION_PAIR, psi.theta, psi.phi, slots)
    fn = spin_orbit_com_table if scheme == "spin-orbit" else _helicity_wavefunction

    def no_separation(*args):
        raise AssertionError("the delta branch separated the tables in phi")

    monkeypatch.setattr(states_module, "_separated", no_separation)
    dec = decompose_product_state(psi, FERMION_PAIR, PAIR_S, 3, scheme)
    for e in dec.entries:
        table = fn(FERMION_PAIR, e.j, e.channel, e.component, psi.theta, psi.phi)
        want = complex(np.sum(table.conj() * slots))
        assert (e.coefficient.real, e.coefficient.imag) == (want.real, want.imag)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize(
    "spec", [TwoParticleSpec(1.0, 1.0, 1, 1), TwoParticleSpec(1.0, 1.0, 1, 0.5)],
    ids=["spins-1-1", "spins-1-half"],
)
def test_reconstruct_rejects_a_decomposition_of_other_spins(spec, scheme, monkeypatch):
    """A decomposition records the pair it was made for; reconstructing it
    with other constituent spins raises ValueError naming both pairs,
    before any table is built."""
    dec = decompose_product_state(bell_state("psi11"), FERMION_PAIR, PAIR_S, 2, scheme)
    assert dec.spec is FERMION_PAIR

    def no_work(*args):
        raise AssertionError("tables were built for a mismatched decomposition")

    monkeypatch.setattr(states_module, "_label_tables", no_work)
    with pytest.raises(ValueError, match="spins") as err:
        reconstruct(dec, build_grid(8, 16), spec)
    assert "(1/2, 1/2)" in str(err.value)
    assert f"({spec.j1}, {spec.j2})" in str(err.value)


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
        patched.setattr(states_module, "_label_tables", no_work)
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


@pytest.mark.parametrize("spins", [(1, 0.5), (0.5, 1), (1, 1), (1.5, 1)],
                         ids=["spins-1-half", "spins-half-1", "spins-1-1", "spins-3half-1"])
def test_loaded_rotation_matches_closed_form_for_other_spins(spins, rng):
    """Both schemes' loaded rotations follow one fixed-axis law, whatever
    the spins: on 16x33 every basis state with j <= 3/2 of the pairs
    (1, 1/2), (1/2, 1), (1, 1) and (3/2, 1) rotates from its JSON table as
    from its closed form (measured gap at most 7.1e-15)."""
    spec = TwoParticleSpec(1.0, 1.0, *spins)
    grid = build_grid(16, 33)
    u = random_su2(rng)
    for scheme in ("spin-orbit", "helicity"):
        for state in all_basis_states(grid, spec, PAIR_S, 1.5, scheme):
            loaded = state_from_json(state_to_json(state), spec)
            gap = apply_rotation(loaded, u).amplitudes - apply_rotation(state, u).amplitudes
            assert np.abs(gap).max() < 1e-12, (scheme, state.j, state.channel, state.component)


def test_grid_only_tables_are_cached_read_only():
    """The helicity frames at a grid's nodes and the fit's DFT matrix,
    polar rows and row orders are built once per grid size (and spins) and
    shared, so none of them can be written; the frames have the bytes of
    _helicity_frames at the grid's node arrays."""
    grid = build_grid(16, 33)
    spins = FERMION_PAIR.j1, FERMION_PAIR.j2
    frames = states_module._grid_frames(grid.n_theta, grid.n_phi, *spins)
    assert states_module._grid_frames(16, 33, HalfInt(1), HalfInt(1)) is frames
    for cached, want in zip(frames, _helicity_frames(grid.theta, grid.phi, *spins)):
        assert cached.tobytes() == want.tobytes()
    tables = states_module._fit_tables(grid.n_theta, grid.n_phi)
    assert states_module._fit_tables(grid.n_theta, grid.n_phi) is tables
    for array in (*frames, *tables):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_rotations_keep_their_bytes_with_a_cold_cache(rng):
    """A rotation that builds the grid-only tables and one that reads them
    give the same bytes: loaded and closed-form rotations of both schemes,
    and slot conversion, on 16x33."""
    grid = build_grid(16, 33)
    u = random_su2(rng)

    def outputs():
        out = []
        for scheme in ("spin-orbit", "helicity"):
            for state in fermion_states(grid, 1, scheme)[:3]:
                loaded = state_from_json(state_to_json(state), FERMION_PAIR)
                out += [apply_rotation(state, u), apply_rotation(loaded, u)]
                if scheme == "helicity":
                    out.append(convert_slots_to_canonical(loaded))
        return [st.amplitudes.tobytes() for st in out]

    states_module._fit_tables.cache_clear()
    states_module._grid_frames.cache_clear()
    cold = outputs()
    assert outputs() == cold


def test_loaded_rotation_takes_two_legendre_sweeps_and_no_lpmv(monkeypatch, rng):
    """The first loaded rotation on a grid size takes two _legendre sweeps:
    the fit's polar rows at the n_theta polar nodes, which the grid-only
    cache then keeps, and the sum at the N preimage nodes. Every later
    rotation on that size takes the second alone. The sweep computes its
    own top orders, so lpmv is never called."""
    sweeps = []
    sweep = su2_module._legendre

    def counted_sweep(l_max, x):
        sweeps.append(np.size(x))
        return sweep(l_max, x)

    def forbidden(*args):
        raise AssertionError("lpmv called")

    grid = build_grid(16, 33)
    u = random_su2(rng)
    states_module._fit_tables.cache_clear()
    first = True
    for scheme in ("spin-orbit", "helicity"):
        for state in fermion_states(grid, 1, scheme):
            loaded = state_from_json(state_to_json(state), FERMION_PAIR)
            sweeps.clear()
            with monkeypatch.context() as patch:
                patch.setattr(su2_module, "_legendre", counted_sweep)
                patch.setattr(su2_module, "lpmv", forbidden)
                apply_rotation(loaded, u)
            want = [grid.n_theta, grid.size] if first else [grid.size]
            assert sweeps == want, (scheme, sweeps)
            first = False


def test_loaded_rotation_memory_is_linear_in_the_grid(rng):
    """A loaded rotation evaluates its Legendre sweep and its fit in blocks
    of at most _HARMONIC_BLOCK entries. On 48x97 one j = 1 state peaks at
    7.3 MB (spin-orbit) and 8.1 MB (helicity) under tracemalloc with a
    cold grid-only cache, which the first rotation on the grid builds
    (6.1 and 6.4 MB warm), about 25 times its 0.30 MB amplitude array,
    where the whole harmonic table at the preimage nodes took 275.6 MB.
    The gap to the closed form is 3.7e-13 and 8.6e-13."""
    grid = build_grid(48, 97)
    u = random_su2(rng)
    for label in ((1, SpinOrbitChannel(1, 1), 1), (1, HelicityChannel(0.5, -0.5), -1)):
        state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, *label)
        loaded = state_from_json(state_to_json(state), FERMION_PAIR)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rotated = apply_rotation(loaded, u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 40 * loaded.amplitudes.nbytes, (label, peak)
        gap = rotated.amplitudes - apply_rotation(state, u).amplitudes
        assert np.abs(gap).max() < 1e-10, label


def test_loaded_rotation_blocks_keep_the_bits(monkeypatch, rng):
    """On 24x49 the default budget takes 3 node blocks for the sweep at the
    preimage nodes; 147 node blocks and 12 row blocks of the fit, or one
    block of each, give the same bits."""
    grid = build_grid(24, 49)
    u = random_su2(rng)
    for scheme in ("spin-orbit", "helicity"):
        for state in fermion_states(grid, 1, scheme)[:2]:
            loaded = state_from_json(state_to_json(state), FERMION_PAIR)
            rotated = apply_rotation(loaded, u).amplitudes
            for block in (5000, 1 << 30):
                monkeypatch.setattr(states_module, "_HARMONIC_BLOCK", block)
                np.testing.assert_array_equal(apply_rotation(loaded, u).amplitudes, rotated)
            monkeypatch.undo()


def test_separable_fit_equals_the_dense_fit():
    """_harmonic_fit sums over phi ring by ring, then over theta with the
    polar rows; the coefficients equal the dense fit conj(Y) (w A) with Y
    the full harmonic table on the grid's nodes, for every j <= 1 state of
    both schemes in fixed-axis slots (measured gap at most 9.4e-16)."""
    for shape in ((16, 33), (8, 17), (24, 49)):
        grid = build_grid(*shape)
        dense = _harmonic_table(grid.n_theta - 1, grid.theta, grid.phi).conj()
        for scheme in ("spin-orbit", "helicity"):
            for state in fermion_states(grid, 1, scheme):
                fixed = state if scheme == "spin-orbit" else convert_slots_to_canonical(state)
                table = fixed.amplitudes.reshape(grid.size, -1)
                want = dense @ (grid.weights[:, None] * table)
                gap = np.abs(_harmonic_fit(grid, table) - want).max()
                assert gap <= 1e-14, (shape, scheme, state.channel, state.component, gap)


def test_loaded_rotation_on_too_fine_a_grid_fails_before_any_harmonic(monkeypatch):
    """A table's fit needs harmonics up to l = n_theta - 1, and Y_lm stops
    at l = 85. A loaded rotation on a finer grid raises InvalidOrbitalLabel
    naming n_theta and the limit, before it evaluates a single harmonic."""

    def forbidden(*args):
        raise AssertionError("a Legendre function was evaluated")

    u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)
    for n_theta in (87, 90):
        grid = build_grid(n_theta, 2 * n_theta + 1)
        for channel in (SpinOrbitChannel(0, 0), HelicityChannel(0.5, 0.5)):
            state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 0, channel, 0)
            table = dataclasses.replace(state, closed_form=False)
            with monkeypatch.context() as patch:
                patch.setattr(su2_module, "lpmv", forbidden)
                patch.setattr(su2_module, "_legendre", forbidden)
                with pytest.raises(InvalidOrbitalLabel, match=rf"n_theta = {n_theta}.*l <= 85"):
                    apply_rotation(table, u)


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


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
@pytest.mark.parametrize("j1, j2, j_max", [
    pytest.param(1, 0.5, 1, id="1-0.5"),
    pytest.param(1, 1, 1, id="1-1"),
    pytest.param(1.5, 0.5, 1, id="1.5-0.5"),
    pytest.param(2, 1.5, 1, id="2-1.5"),
    pytest.param(1, 0.5, 3, id="1-0.5-jmax3"),
    pytest.param(1, 1, 3, id="1-1-jmax3"),
])
def test_rotation_covariance_for_every_constituent_spin(j1, j2, j_max, scheme, rng):
    """For constituents beyond spin 1/2, rotated basis states stay inside
    their (j, channel) block; orbital/spin blocks mix by S† D^j(u) S with
    S = diag((-1)^chi), helicity blocks by the bare D^j(u); and a state
    loaded from JSON rotates to its closed-form rotation. j_max = 3 takes
    spins (1, 1/2) and (1, 1) above total spin 1. Measured at these sizes:
    4.7e-15 across blocks, 8.4e-15 against the laws and 8.5e-15 from the
    closed-form rotation at worst."""
    spec = TwoParticleSpec(1.0, 1.0, j1, j2)
    grid = build_grid(12, 25)
    u = random_su2(rng)
    states = all_basis_states(grid, spec, PAIR_S, j_max, scheme)
    rotated = [apply_rotation(st, u) for st in states]
    overlap = np.einsum(
        "n,incd,kncd->ik", grid.weights,
        np.array([st.amplitudes for st in states]).conj(),
        np.array([st.amplitudes for st in rotated]),
    )
    labels = [(st.j, st.channel) for st in states]
    for j, channel in set(labels):
        inside = np.array([label == (j, channel) for label in labels])
        law = rep_matrix(j, u)
        if scheme == "spin-orbit":
            sign = np.diag([cgc_module._minus_one_to(chi) for chi in components(j)])
            law = sign.conj() @ law @ sign
        assert np.abs(overlap[np.ix_(inside, inside)] - law).max() < 1e-12, (j, channel)
        assert np.abs(overlap[np.ix_(~inside, inside)]).max(initial=0.0) < 1e-12, (j, channel)
    for state, turned in zip(states, rotated):
        loaded = state_from_json(state_to_json(state), spec)
        gap = apply_rotation(loaded, u).amplitudes - turned.amplitudes
        assert np.abs(gap).max() < 1e-12, (state.j, state.channel, state.component)


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


def test_little_group_phase_is_the_frames_upper_left_entry(rng):
    """The phase law of closed-form helicity rotations: at the 16x33 nodes,
    at both poles and on both sides of the phi = 0 seam, the phase taken
    from the spinors xi(n) equals the upper-left entry of R(n)^-1 u R(n')
    with particle 1's spin-1/2 Jacob-Wick frames, and its conjugate equals
    that entry with particle 2's frames, within 1e-15. A rotation that does
    not map the preimages onto the images raises ValueError."""
    grid = build_grid(16, 33)
    edges = np.array([0.0, 1.0, np.pi - 1.0, np.pi])
    seam = np.array([0.0, -0.0, 2.0 * np.pi - 1e-12, 1e-12])
    theta = np.concatenate((grid.theta, np.repeat([0.0, np.pi], 4), np.tile(edges, 4)))
    phi = np.concatenate((grid.phi, np.tile([0.0, 1.0, 3.0, 5.0], 2), np.repeat(seam, 4)))
    half = HalfInt(1)
    for u in random_su2(rng, 4):
        thp, php = _preimages(u, theta, phi)
        w = _little_group_phase(u, theta, phi, thp, php)
        for frame_img, frame_pre, want in zip(_helicity_frames(theta, phi, half, half),
                                              _helicity_frames(thp, php, half, half), (w, w.conj())):
            entry = (frame_img.conj().swapaxes(-1, -2) @ u @ frame_pre)[:, 0, 0]
            assert np.abs(want - entry).max() <= 1e-15
        with pytest.raises(ValueError, match="not a z-rotation"):
            _little_group_phase(u, theta, phi, theta, phi)


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


def _recoupling(spec, so, hel) -> complex:
    """Jacob and Wick's overlap of a spin-orbit basis state with a
    converted helicity one of the same (j, chi), mu = lam1 - lam2:
    (-1)^(j2 - lam2) i^(-2 chi) sqrt((2l+1)/(2j+1)) <l 0 s mu|j mu>
    <j1 lam1 j2 -lam2|s mu>; i^(-2 chi) undoes the (-1)^chi of the
    spin-orbit cells."""
    (l, s), (lam1, lam2), j = so.channel.eta, hel.channel.eta, so.j
    mu = lam1 - lam2
    sign = -1.0 if int(spec.j2 - lam2) % 2 else 1.0
    return (sign * 1j ** -so.component.twice * math.sqrt((2 * int(l) + 1) / (j.twice + 1))
            * su2_cgc(j, l, s, mu, 0, mu) * su2_cgc(s, spec.j1, spec.j2, mu, lam1, -lam2))


@pytest.mark.parametrize("j1, j2", [(0.5, 0.5), (1, 0.5), (0.5, 1), (1, 1), (1.5, 0.5), (1.5, 1)])
def test_helicity_states_recouple_to_spin_orbit_states(j1, j2):
    """The paper's two formulations are one closed-form recoupling apart
    (Jacob and Wick, Ann. Phys. 7, 404 (1959)): on 16x33 at s = 10.89 with
    s1 = 1 and s2 = 1.69, every overlap of a spin-orbit basis state with
    a converted helicity one is :func:`_recoupling` within 1e-12 for
    every j <= 2 (integer) or j <= 5/2 (half-integer) and every chi, and
    vanishes between different (j, chi)."""
    spec = TwoParticleSpec(1.0, 1.69, j1, j2)
    grid = build_grid(16, 33)
    j_max = 2.5 if (HalfInt.of(j1) + HalfInt.of(j2)).twice % 2 else 2
    so_states = all_basis_states(grid, spec, 10.89, j_max, "spin-orbit")
    hel_states = all_basis_states(grid, spec, 10.89, j_max, "helicity")
    gap = 0.0
    for hel in hel_states:
        conv = convert_slots_to_canonical(hel)
        for so in so_states:
            same = (so.j, so.component) == (hel.j, hel.component)
            want = _recoupling(spec, so, hel) if same else 0.0
            gap = max(gap, abs(inner_product(so, conv) - want))
    assert gap < 1e-12


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


def test_json_amplitudes_render_as_the_per_element_pairs():
    """state_to_json writes its [re, im] pairs from one array; the text must
    be the per-element rendering's, signed zeros included."""
    grid = build_grid(16, 33)
    for scheme in ("spin-orbit", "helicity"):
        for state in fermion_states(grid, 1, scheme):
            amps = state.amplitudes.copy()
            amps[0, 0, 0] = complex(-0.0, -0.0)
            amps[1, 0, 1] = complex(0.0, -0.0)
            state = dataclasses.replace(state, amplitudes=amps)
            payload = json.loads(state_to_json(state))
            payload["amplitudes"] = [[float(z.real), float(z.imag)] for z in amps.ravel()]
            assert state_to_json(state) == json.dumps(payload)


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
        ("amplitudes", [[True, False]]),
        ("amplitudes", [[math.nan, 0.0]]),
        ("amplitudes", [[0.0, math.inf]]),
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


@pytest.mark.parametrize("pair", [[True, 0.0], [0.0, False], [math.nan, 0.0],
                                  [0.0, -math.inf], [math.inf, math.nan]])
def test_json_rejects_a_boolean_or_non_finite_amplitude_pair(pair):
    """One bad pair in an otherwise complete amplitude list raises ValueError
    naming the field; Python's json reads NaN and Infinity tokens."""
    grid = build_grid(8, 16)
    state = build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, SpinOrbitChannel(1, 1), 0)
    payload = json.loads(state_to_json(state))
    payload["amplitudes"][37] = pair
    with pytest.raises(ValueError, match="'amplitudes'"):
        state_from_json(json.dumps(payload), FERMION_PAIR)


# (scheme, j, channel, component) of labels that no basis state carries,
# and the error each raises
_BAD_LABELS = [
    ("spin-orbit", 1, SpinOrbitChannel(1, 1), 5, ValueError),
    ("spin-orbit", -1, SpinOrbitChannel(1, 1), 0, ValueError),
    ("spin-orbit", 1, SpinOrbitChannel(1, 1), 0.5, ValueError),
    ("spin-orbit", 1, SpinOrbitChannel(7, 0), 0, InvalidChannel),
    ("spin-orbit", 1, SpinOrbitChannel(1, 3), 0, InvalidChannel),
    ("helicity", 1, HelicityChannel(1.5, 0.5), 0, InvalidChannel),
    ("helicity", 0, HelicityChannel(0.5, -0.5), 0, InvalidChannel),
]


@pytest.mark.parametrize("scheme, j, channel, component, error", _BAD_LABELS)
def test_json_rejects_labels_that_no_basis_state_carries(scheme, j, channel, component, error):
    """state_from_json checks the labels as build_com_basis_state does: the
    same error, with the same message, for each bad label."""
    grid = build_grid(6, 13)
    good = cgc_module.coupling_channels(FERMION_PAIR, 1, scheme)[0]
    payload = json.loads(state_to_json(
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, 1, good, 0)
    ))
    payload.update(j=float(j), eta=[float(x) for x in channel.eta], component=float(component))
    with pytest.raises(error) as loaded:
        state_from_json(json.dumps(payload), FERMION_PAIR)
    with pytest.raises(error) as built:
        build_com_basis_state(grid, FERMION_PAIR, PAIR_S, j, channel, component)
    assert str(loaded.value) == str(built.value)


def test_basis_state_labels_are_checked_before_any_amplitude(monkeypatch):
    def no_work(*args):
        raise AssertionError("amplitudes were computed for a bad label")

    monkeypatch.setattr(states_module, "_label_tables", no_work)
    grid = build_grid(6, 13)
    for scheme, j, channel, component, error in _BAD_LABELS:
        with pytest.raises(error):
            build_com_basis_state(grid, FERMION_PAIR, PAIR_S, j, channel, component)


def test_json_count_is_checked_before_the_grid_is_built(monkeypatch):
    """A short payload that declares a 1000x1000 grid raises the count error
    without building the grid, whose cost the two sizes alone would set."""

    def no_grid(*args):
        raise AssertionError("a grid was built")

    payload = json.dumps({
        "scheme": "spin-orbit", "s": 9.0, "j": 0.0, "eta": [0.0, 0.0], "component": 0.0,
        "grid": {"n_theta": 1000, "n_phi": 1000}, "amplitudes": [[0.0, 0.0]],
    })
    assert len(payload) == 151
    monkeypatch.setattr(states_module, "build_grid", no_grid)
    with pytest.raises(ValueError, match="1 entries; grid and spins require 4000000"):
        state_from_json(payload, FERMION_PAIR)


def _with_one_bad_amplitude(state, bad):
    amps = state.amplitudes.copy()
    amps[5, 0, 1] = bad
    return dataclasses.replace(state, amplitudes=amps)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_json_refuses_to_write_a_non_finite_table(bad):
    """state_to_json would write NaN or Infinity tokens that state_from_json
    rejects; it raises ValueError naming 'amplitudes' instead."""
    grid = build_grid(8, 17)
    for scheme in ("spin-orbit", "helicity"):
        state = _with_one_bad_amplitude(fermion_states(grid, 1, scheme)[1], bad)
        with pytest.raises(ValueError, match="'amplitudes'"):
            state_to_json(state)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_loaded_rotation_refuses_a_non_finite_table(bad, rng):
    """The fit of a table with one NaN or infinity would spread it over every
    node; apply_rotation raises ValueError naming 'amplitudes' instead."""
    grid = build_grid(8, 17)
    for scheme in ("spin-orbit", "helicity"):
        state = fermion_states(grid, 1, scheme)[1]
        loaded = state_from_json(state_to_json(state), FERMION_PAIR)
        with pytest.raises(ValueError, match="'amplitudes'"):
            apply_rotation(_with_one_bad_amplitude(loaded, bad), random_su2(rng))


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

    monkeypatch.setattr(states_module, "_label_tables", no_work)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_grid_state_rejects_non_finite_amplitudes(bad):
    """A non-finite amplitude fails at construction, not as NaN coefficients
    and a NaN norm out of decompose_product_state."""
    grid = build_grid(6, 13)
    amps = np.full((grid.size, 2, 2), 0.1 + 0.0j)
    amps[17, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        GridProductState(grid=grid, spec=FERMION_PAIR, amplitudes=amps)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_delta_state_rejects_non_finite_input(bad):
    for theta, phi in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            DeltaProductState(spec=FERMION_PAIR, theta=theta, phi=phi,
                              coefficients=np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ValueError, match="sum"):
        DeltaProductState(spec=FERMION_PAIR, theta=0.0, phi=0.0,
                          coefficients=np.array([[bad, 0.0], [0.0, 0.0]]))


def test_delta_state_rejects_angles_above_the_bound():
    """Each angle is tested on its own, as the rest-frame tables test
    them: 1e308 raises ValueError, also for theta = phi = 1e308, whose
    sum would overflow."""
    for theta, phi in ((1e308, 0.0), (0.0, -1e308), (1e308, 1e308)):
        with pytest.raises(ValueError, match=r"must be finite and at most 1e\+300"):
            DeltaProductState(spec=FERMION_PAIR, theta=theta, phi=phi,
                              coefficients=np.eye(2) / math.sqrt(2.0))


@pytest.mark.parametrize("big", [1e308, 1e308 + 1e308j])
def test_delta_state_with_an_overflowing_norm_raises_without_a_warning(big):
    """A coefficient whose square (or modulus) is past the float range gives
    an infinite norm: the ValueError is what the caller sees, with no
    RuntimeWarning (the suite turns those into errors)."""
    with pytest.raises(ValueError, match=r"sum \|c\|\^2 = 1"):
        DeltaProductState(spec=FERMION_PAIR, theta=0.3, phi=0.4, coefficients=[[big, 0], [0, 0]])


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


def test_json_round_trips_states_and_refuses_converted_ones(rng):
    """Basis, rotated, loaded and rotated loaded states of both schemes
    round-trip bit for bit. A slot-converted state keeps its helicity
    channel under the scheme "spin-orbit", which the one scheme field
    cannot express: saving it raises instead of writing a label that loads
    as an orbital/spin channel."""
    grid = build_grid(8, 17)
    for state in _fresh_rotated_loaded_converted(grid, random_su2(rng)):
        if state.scheme == "spin-orbit" and isinstance(state.channel, HelicityChannel):
            with pytest.raises(ValueError, match="convert_slots_to_canonical"):
                state_to_json(state)
            continue
        text = state_to_json(state)
        loaded = state_from_json(text, FERMION_PAIR)
        np.testing.assert_array_equal(loaded.amplitudes, state.amplitudes)
        assert (loaded.scheme, loaded.channel) == (state.scheme, state.channel)
        assert state_to_json(loaded) == text
    # for a spin-1 pair, (lam1, lam2) = (1, 0) would load as the channel l=1, s=0
    vectors = TwoParticleSpec(1.0, 1.0, 1, 1)
    state = build_com_basis_state(grid, vectors, PAIR_S, 1, HelicityChannel(1, 0), 1)
    with pytest.raises(ValueError, match="convert_slots_to_canonical"):
        state_to_json(convert_slots_to_canonical(state))


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
