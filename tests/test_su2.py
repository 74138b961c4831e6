"""Wigner matrices, Clebsch-Gordan coefficients and spherical harmonics.

Oracles are independent of the implementation: matrix exponentials of the
angular momentum generator for d matrices, sympy's exact Clebsch-Gordan
routine for coupling coefficients, and hand closed forms for low harmonics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import lpmv, sph_harm_y

from conftest import quaternion_su2, random_su2
import poincare_cgc.cgc as cgc_module
import poincare_cgc.su2 as su2_module
from poincare_cgc.errors import InvalidOrbitalLabel, NotARotation
from poincare_cgc.halfint import HalfInt, components, hrange
from poincare_cgc.states import build_grid
from poincare_cgc.su2 import (
    _d_entry,
    _harmonic_rows,
    _harmonic_sum,
    _harmonic_table,
    _legendre,
    euler_zyz,
    rep_matrix,
    spherical_harmonic,
    su2_cgc,
    wigner_d_small,
)


def _jy_matrix(j):
    """Angular momentum generator J_y in the descending component basis."""
    j = HalfInt.of(j)
    ms = np.array([float(m) for m in components(j)])
    jv = float(j)
    dim = len(ms)
    jy = np.zeros((dim, dim), dtype=complex)
    for a in range(dim - 1):
        # raising entry connecting m and m+1 in descending order
        m = ms[a + 1]
        amp = 0.5 * np.sqrt(jv * (jv + 1.0) - m * (m + 1.0))
        jy[a, a + 1] = -1j * amp
        jy[a + 1, a] = 1j * amp
    return jy


@pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2, 3])
def test_wigner_d_matches_exponential_oracle(j, rng):
    jy = _jy_matrix(j)
    for beta in rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=6):
        want = expm(-1j * beta * jy)
        got = wigner_d_small(j, beta)
        assert np.max(np.abs(got - want)) < 1e-12


def test_wigner_d_half_hand_values():
    beta = 0.83
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    want = np.array([[c, -s], [s, c]])
    assert np.allclose(wigner_d_small(0.5, beta), want, atol=1e-15)


def test_wigner_d_one_hand_values():
    """Every entry of the spin-1 table in the descending basis."""
    beta = 1.21
    c, s = np.cos(beta), np.sin(beta)
    want = np.array(
        [
            [(1 + c) / 2, -s / np.sqrt(2), (1 - c) / 2],
            [s / np.sqrt(2), c, -s / np.sqrt(2)],
            [(1 - c) / 2, s / np.sqrt(2), (1 + c) / 2],
        ]
    )
    assert np.allclose(wigner_d_small(1, beta), want, atol=1e-14)


def test_wigner_d_vectorizes_over_beta():
    betas = np.linspace(0.0, np.pi, 7).reshape(7, 1)
    table = wigner_d_small(1, betas)
    assert table.shape == (7, 1, 3, 3)
    assert np.allclose(table[0, 0], np.eye(3), atol=1e-14)


def test_wigner_d_small_is_d_entry_bit_for_bit():
    """wigner_d_small sums all entries at once and _d_entry one entry; the
    golden helicity tables read _d_entry while the helicity frames,
    rep_matrix and helicity decompose read wigner_d_small, so the two must
    agree bit for bit: every entry for 2j <= 20, at scalar and array beta,
    signed zeros, +-pi and 2 pi included. (A scalar and an array beta may
    round apart by an ulp, so each is compared with its own kind.)"""
    betas = np.array([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, 0.3, 1.7, -2.9, 5.1])
    for tj in range(21):
        table = wigner_d_small(HalfInt(tj), betas)
        singles = [wigner_d_small(HalfInt(tj), beta) for beta in betas]
        for a, tmp in enumerate(range(tj, -tj - 1, -2)):
            for b, tm in enumerate(range(tj, -tj - 1, -2)):
                want = _d_entry(tj, tmp, tm, betas)
                assert table[:, a, b].tobytes() == want.tobytes(), (tj, tmp, tm)
                for beta, single in zip(betas, singles):
                    got = np.float64(single[a, b]).tobytes()
                    assert got == np.float64(_d_entry(tj, tmp, tm, beta)).tobytes(), (tj, beta)


def test_wigner_d_rejects_bad_spin():
    with pytest.raises(ValueError):
        wigner_d_small(-1, 0.3)
    with pytest.raises(ValueError):
        wigner_d_small(0.3, 0.3)


def test_euler_zyz_reconstructs(rng):
    for _ in range(50):
        u = random_su2(rng)
        alpha, beta, gamma = euler_zyz(u)
        assert 0.0 <= beta <= np.pi
        assert np.max(np.abs(rep_matrix(0.5, u) - u)) < 1e-10


def test_euler_zyz_rejects_non_rotation():
    with pytest.raises(NotARotation):
        euler_zyz(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_rep_matrix_is_double_cover_faithful(rng):
    u = random_su2(rng)
    assert np.max(np.abs(rep_matrix(0.5, u) - u)) < 1e-12
    assert np.max(np.abs(rep_matrix(0.5, -u) + u)) < 1e-12


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
def test_rep_matrix_homomorphism_and_unitarity(j, rng):
    for _ in range(20):
        u, v = random_su2(rng), random_su2(rng)
        du, dv = rep_matrix(j, u), rep_matrix(j, v)
        duv = rep_matrix(j, u @ v)
        assert np.max(np.abs(duv - du @ dv)) < 1e-12
        dim = du.shape[0]
        assert np.max(np.abs(du @ du.conj().T - np.eye(dim))) < 1e-12


_quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)


@pytest.mark.parametrize("twice", range(21))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(qu=_quaternions, qv=_quaternions)
def test_rep_matrix_homomorphism_over_the_supported_range(twice, qu, qv):
    """D^j(u v) = D^j(u) D^j(v) and D^j(u) is unitary for every j <= 10
    (measured below 2e-14 throughout)."""
    j = HalfInt(twice)
    u, v = quaternion_su2(qu), quaternion_su2(qv)
    du, dv = rep_matrix(j, u), rep_matrix(j, v)
    assert np.max(np.abs(rep_matrix(j, u @ v) - du @ dv)) < 1e-12
    assert np.max(np.abs(du @ du.conj().T - np.eye(twice + 1))) < 1e-12


def test_rep_matrix_of_z_rotation_is_diagonal_phase():
    psi = 0.77
    u = np.diag([np.exp(-0.5j * psi), np.exp(0.5j * psi)])
    d = rep_matrix(1, u)
    want = np.diag(np.exp(-1j * psi * np.array([1.0, 0.0, -1.0])))
    assert np.allclose(d, want, atol=1e-12)


def test_su2_cgc_against_sympy_oracle():
    sympy_physics = pytest.importorskip("sympy.physics.quantum.cg")
    from sympy import Rational, S

    def oracle(j, j1, j2, m, m1, m2):
        cg = sympy_physics.CG(
            Rational(j1.twice, 2), Rational(m1.twice, 2),
            Rational(j2.twice, 2), Rational(m2.twice, 2),
            Rational(j.twice, 2), Rational(m.twice, 2),
        )
        return float(cg.doit())

    for tj1 in range(5):
        for tj2 in range(5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            for j in hrange(abs(j1 - j2), j1 + j2):
                for m in components(j):
                    for m1 in components(j1):
                        m2 = m - m1
                        if abs(m2) > j2:
                            continue
                        got = su2_cgc(j, j1, j2, m, m1, m2)
                        want = oracle(j, j1, j2, m, m1, m2)
                        assert abs(got - want) < 1e-12, (j, j1, j2, m, m1, m2)


def test_su2_cgc_hand_values():
    assert su2_cgc(0, 0.5, 0.5, 0, 0.5, -0.5) == pytest.approx(1 / np.sqrt(2))
    assert su2_cgc(0, 0.5, 0.5, 0, -0.5, 0.5) == pytest.approx(-1 / np.sqrt(2))
    assert su2_cgc(1, 0.5, 0.5, 1, 0.5, 0.5) == pytest.approx(1.0)
    assert su2_cgc(1, 2, 1, 1, 2, -1) == pytest.approx(np.sqrt(6.0 / 10.0))
    assert su2_cgc(1, 2, 1, 1, 1, 0) == pytest.approx(-np.sqrt(3.0 / 10.0))
    assert su2_cgc(1, 2, 1, 1, 0, 1) == pytest.approx(np.sqrt(1.0 / 10.0))


def test_su2_cgc_invalid_couplings_return_zero():
    assert su2_cgc(1, 0.5, 0.5, 1, 0.5, -0.5) == 0.0
    assert su2_cgc(3, 1, 1, 0, 0, 0) == 0.0
    assert su2_cgc(1, 0.5, 0.5, 0.5, 0.5, 0.5) == 0.0
    assert su2_cgc(1, 1, 1, 0, 2, -2) == 0.0


def test_su2_cgc_rejects_negative_spin():
    with pytest.raises(ValueError):
        su2_cgc(1, -1, 1, 0, 0, 0)


def test_su2_cgc_orthogonality_relations():
    """Row orthogonality and completeness for all spins up to 2."""
    for tj1 in range(5):
        for tj2 in range(5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            rows = []
            for j in hrange(abs(j1 - j2), j1 + j2):
                for m in components(j):
                    rows.append(
                        [
                            su2_cgc(j, j1, j2, m, m1, m2)
                            for m1 in components(j1)
                            for m2 in components(j2)
                        ]
                    )
            mat = np.array(rows)
            assert mat.shape[0] == mat.shape[1]
            assert np.max(np.abs(mat @ mat.T - np.eye(len(rows)))) < 1e-12
            assert np.max(np.abs(mat.T @ mat - np.eye(len(rows)))) < 1e-12


def test_su2_cgc_orthogonality_over_the_supported_range():
    """For every j1 + j2 <= 10 and total component m, the block
    <j1 m1 j2 m-m1 | j m> over j and m1 is orthogonal both ways: 3,311
    blocks (worst residual measured at 6.7e-16)."""
    blocks = 0
    for tj1 in range(21):
        for tj2 in range(21 - tj1):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            for m in components(j1 + j2):
                js = [j for j in hrange(abs(j1 - j2), j1 + j2) if abs(m) <= j]
                m1s = [m1 for m1 in components(j1) if abs(m - m1) <= j2]
                mat = np.array([[su2_cgc(j, j1, j2, m, m1, m - m1) for m1 in m1s] for j in js])
                assert mat.shape == (len(js), len(js))
                eye = np.eye(len(js))
                assert np.max(np.abs(mat @ mat.T - eye)) <= 1e-12
                assert np.max(np.abs(mat.T @ mat - eye)) <= 1e-12
                blocks += 1
    assert blocks == 3311


def _hand_harmonics(l, m, theta, phi):
    ct, st = np.cos(theta), np.sin(theta)
    table = {
        (0, 0): np.sqrt(1 / (4 * np.pi)) * np.ones_like(ct),
        (1, 0): np.sqrt(3 / (4 * np.pi)) * ct,
        (1, 1): -np.sqrt(3 / (8 * np.pi)) * st * np.exp(1j * phi),
        (2, 0): np.sqrt(5 / (16 * np.pi)) * (3 * ct**2 - 1),
        (2, 1): -np.sqrt(15 / (8 * np.pi)) * st * ct * np.exp(1j * phi),
        (2, 2): np.sqrt(15 / (32 * np.pi)) * st**2 * np.exp(2j * phi),
    }
    if m >= 0:
        return table[(l, m)]
    return (-1.0) ** m * np.conj(table[(l, -m)])


@pytest.mark.parametrize(
    "l,m", [(0, 0), (1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
)
def test_spherical_harmonic_closed_forms(l, m, rng):
    theta = rng.uniform(0.0, np.pi, size=8)
    phi = rng.uniform(0.0, 2 * np.pi, size=8)
    got = spherical_harmonic(l, m, theta, phi)
    want = _hand_harmonics(l, m, theta, phi)
    assert np.max(np.abs(got - want)) < 1e-13


def test_spherical_harmonic_addition_theorem(rng):
    theta = rng.uniform(0.0, np.pi, size=5)
    phi = rng.uniform(0.0, 2 * np.pi, size=5)
    for l in range(5):
        total = sum(
            np.abs(spherical_harmonic(l, m, theta, phi)) ** 2
            for m in range(-l, l + 1)
        )
        assert np.max(np.abs(total - (2 * l + 1) / (4 * np.pi))) < 1e-13


def test_spherical_harmonic_out_of_range_m_is_zero(monkeypatch):
    assert np.all(spherical_harmonic(1, 2, 0.3, 0.4) == 0.0)
    # complex zeros of the angles' broadcast shape, as an in-range call
    # returns, and no harmonic is evaluated for them
    theta, phi = np.linspace(0.0, np.pi, 5)[:, None], np.linspace(0.0, 6.0, 3)
    in_range = spherical_harmonic(1, 1, theta, phi)
    monkeypatch.setattr(su2_module, "_harmonic_top", None)
    for m in (2, -2, 7):
        for angles in ((0.3, 0.4), (theta, phi)):
            zeros = spherical_harmonic(1, m, *angles)
            assert zeros.dtype == in_range.dtype == np.complex128 and not zeros.any()
        assert zeros.shape == in_range.shape


def test_spherical_harmonic_is_its_row_of_the_harmonic_rows():
    """spherical_harmonic evaluates the order |m| alone. It equals the row
    of _harmonic_rows bit for bit, signed zeros included, for every l <= 20
    and every m: on a grid, on the grid's axes and at scalar angles,
    both poles included."""
    grid = build_grid(16, 33)
    angles = [(grid.theta, grid.phi), grid.axes, (0.0, 0.3), (np.pi, -1.1), (0.7, -0.0)]
    for l in range(21):
        for theta, phi in angles:
            rows = _harmonic_rows(l, theta, phi)
            for m in range(-l, l + 1):
                got = spherical_harmonic(l, m, theta, phi)
                assert got.shape == rows.shape[1:]
                assert got.tobytes() == rows[l - m].tobytes()
    for m in (0, 87):
        with pytest.raises(InvalidOrbitalLabel, match="overflows"):
            spherical_harmonic(86, m, 0.1, 0.1)


def test_spherical_harmonics_match_scipy_for_every_order(rng):
    """Y_lm for every l <= 85 and every m, m < 0 included, against scipy's
    sph_harm_y, which shares no code with su2's conjugation step: at seeded
    angles and at both poles."""
    theta = np.concatenate([rng.uniform(0.0, np.pi, size=6), [0.0, np.pi]])
    phi = np.concatenate([rng.uniform(0.0, 2 * np.pi, size=6), [0.4, 1.9]])
    for l in range(86):
        ms = np.arange(l, -l - 1, -1)
        want = sph_harm_y(l, ms[:, None], theta, phi)
        assert np.max(np.abs(_harmonic_rows(l, theta, phi) - want)) < 1e-11
        for m, row in zip(ms, want):
            assert np.max(np.abs(spherical_harmonic(l, m, theta, phi) - row)) < 1e-11


def test_legendre_sweep_is_lpmv_bit_for_bit(rng):
    """_legendre computes the top two orders of each degree by lpmv's own
    series, in numpy, and runs lpmv's own recurrence for the rest; every
    P_l^m with m <= l <= 85 is lpmv's value bit for bit, signed zeros
    included, at seeded x and at the ends, zero and the edges of [-1, 1].
    P_2^0, where lpmv's series value and its recurrence differ, is among
    them. lpmv here is the oracle, a second implementation of the same
    arithmetic."""
    edges = [1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300, 1.0 - 1e-10, -(1.0 - 1e-10)]
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=400), edges])
    table = _legendre(85, x)
    assert table.shape == (86, 86, x.size)
    for l in range(86):
        want = lpmv(np.arange(l + 1)[:, None], l, x)
        assert table[l, : l + 1].tobytes() == want.tobytes(), l
        assert not table[l, l + 1 :].any()


def test_harmonic_table_stacks_the_harmonic_rows():
    """_harmonic_table is the rows of _harmonic_rows for l = 0 ... l_max,
    concatenated, bit for bit: at scalar angles (both poles and a signed
    zero among them), at flat node angles and on the grid's axes."""
    grid = build_grid(16, 33)
    angles = [(grid.theta, grid.phi), grid.axes, (0.0, 0.3), (np.pi, -1.1), (0.7, -0.0)]
    for l_max in (0, 1, 2, 3, 15):
        for theta, phi in angles:
            want = np.concatenate([_harmonic_rows(l, theta, phi) for l in range(l_max + 1)])
            got = _harmonic_table(l_max, theta, phi)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (l_max, np.shape(theta))
    with pytest.raises(InvalidOrbitalLabel, match="overflows"):
        _harmonic_table(86, 0.1, 0.1)


def test_harmonic_sum_is_the_dense_sum(rng):
    """_harmonic_sum adds c_lm Y_lm order by order from one real sweep; it
    equals the dense product of _harmonic_table with the coefficients to
    roundoff (measured at most 5.1e-15 of the largest value), with poles
    among the nodes, and its node blocks and order groups keep the bits:
    one block of all 63 nodes, blocks of 7 nodes, and blocks of 2 nodes,
    whose last node joins the block before it, give the same bytes."""
    for l_max, columns in ((0, 1), (1, 2), (15, 4), (15, 9), (23, 9), (47, 4)):
        theta = np.concatenate([np.arccos(rng.uniform(-1.0, 1.0, 61)), [0.0, np.pi]])
        phi = np.concatenate([rng.uniform(0.0, 2 * np.pi, 61), [0.4, 1.9]])
        coeffs = rng.normal(size=((l_max + 1) ** 2, columns, 2)) @ [1.0, 1j]
        want = _harmonic_table(l_max, theta, phi).T @ coeffs
        got = _harmonic_sum(coeffs, theta, phi, 1 << 30)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), l_max
        for step in (7, 2):
            assert _harmonic_sum(coeffs, theta, phi, step).tobytes() == got.tobytes()


def test_legendre_sweep_factors_are_cached_read_only():
    """The sweep's x-free factors are built once per (l_max, ndim) and are
    shared, so none of them can be written."""
    ls, series, odd, recurrence = su2_module._sweep_factors(15, 1)
    assert su2_module._sweep_factors(15, 1)[1] is series
    arrays = [ls, odd, *(a for m, sign, rg, steps in series for a in (m, sign, rg, *sum(steps, ())))]
    arrays += [a for pair in recurrence for a in pair]
    for array in arrays:
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308, -1e301])
def test_su2_functions_reject_angles_as_the_tables_do(bad):
    """wigner_d_small and spherical_harmonic test their angles by the one
    rule of the rest-frame tables (cgc imports it from su2): NaN, an
    infinity or a magnitude above 1e300 raises ValueError naming the
    angle, with no RuntimeWarning and no value returned, for every order m."""
    assert cgc_module._finite_angles is su2_module._finite_angles
    for beta in (bad, np.array([0.3, bad])):
        with pytest.raises(ValueError, match="angle beta must be finite"):
            wigner_d_small(1, beta)
    for m in (1, -1, 3):
        with pytest.raises(ValueError, match="angle theta must be finite"):
            spherical_harmonic(2, m, bad, 0.2)
        with pytest.raises(ValueError, match="angle phi must be finite"):
            spherical_harmonic(2, m, 0.3, np.array([0.2, bad]))


def test_su2_functions_are_finite_at_the_angle_bound():
    """At |angle| = 1e300 both functions return finite values."""
    assert np.isfinite(wigner_d_small(6, np.array([1e300, -1e300]))).all()
    assert np.isfinite(spherical_harmonic(7, -5, -1e300, np.array([1e300, -1e300]))).all()


def test_spherical_harmonic_rejects_bad_labels():
    with pytest.raises(InvalidOrbitalLabel):
        spherical_harmonic(0.5, 0.5, 0.1, 0.1)
    with pytest.raises(InvalidOrbitalLabel):
        spherical_harmonic(-1, 0, 0.1, 0.1)
    with pytest.raises(InvalidOrbitalLabel):
        spherical_harmonic(2, 0.5, 0.1, 0.1)
