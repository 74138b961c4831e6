"""Wigner matrices, Clebsch-Gordan coefficients and spherical harmonics.

Oracles are independent of the implementation: matrix exponentials of the
angular momentum generator for d matrices, sympy's exact Clebsch-Gordan
routine for coupling coefficients, and hand closed forms for low harmonics.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import lpmv, sph_harm_y

from conftest import _d_entry, _preimages, coefficient_rows, dense_coefficients, quaternion_su2, random_su2
import poincare_cgc.cgc as cgc_module
import poincare_cgc.su2 as su2_module
from poincare_cgc.errors import InvalidOrbitalLabel, NotARotation
from poincare_cgc.halfint import HalfInt, components, hrange
from poincare_cgc.lorentz import _rotation_matrix, require_su2
from poincare_cgc.states import _harmonic_synthesis, build_grid
from poincare_cgc.su2 import (
    _cg_block,
    _fact,
    _harmonic_rows,
    _harmonic_table,
    _legendre,
    _quarter_turn,
    _rotated_harmonics,
    _slot_matrix,
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
    """wigner_d_small sums all entries at once and _d_entry, the tests'
    one-entry oracle, a single entry's factorial sum alone; the helicity
    frames, rep_matrix and the label kernel read the batched sums, so the
    two must agree bit for bit: every entry for 2j <= 20, at scalar and
    array beta, signed zeros, +-pi and 2 pi included. (A scalar and an
    array beta may round apart by an ulp, so each is compared with its own
    kind.)"""
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


def _euler_by_rebuild(u):
    """Euler angles as the library took them before its one sign test:
    both sheets of alpha off the poles, the matrix rebuilt from each and
    the nearer kept. The oracle of test_euler_zyz_sheet_rule_is_the_rebuild."""
    u = require_su2(u)
    top, bottom = u[..., 0, 0], u[..., 1, 0]
    abs_top, abs_bottom = np.hypot(top.real, top.imag), np.hypot(bottom.real, bottom.imag)
    beta = 2.0 * np.arctan2(abs_bottom, abs_top)
    top, bottom = np.angle(top), np.angle(bottom)
    pole_top = abs_top < 1e-12
    pole = pole_top | (abs_bottom < 1e-12)
    at_pole = np.mod(np.where(pole_top, 2.0 * bottom, -2.0 * top), 4.0 * np.pi)
    alpha = np.where(pole, at_pole, np.mod(-top + bottom, 2.0 * np.pi))
    gamma = np.where(pole, 0.0, np.mod(-top - bottom, 2.0 * np.pi))
    rebuilt = _rotation_matrix(beta, alpha) @ _rotation_matrix(0.0, gamma)
    minus, plus = (np.abs(x).max(axis=(-2, -1)) for x in (rebuilt - u, rebuilt + u))
    alpha = np.where(minus > plus, np.mod(alpha + 2.0 * np.pi, 4.0 * np.pi), alpha)
    assert (np.minimum(minus, plus) <= 1e-9).all()
    return alpha, beta, gamma


def test_euler_zyz_sheet_rule_is_the_rebuild(rng):
    """euler_zyz picks alpha's sheet with one sign test, cos(arg u00 +
    (alpha + gamma)/2) < 0 off the poles, where the factorization it
    replaced rebuilt the matrix on both sheets and kept the nearer. Their
    angles agree byte for byte on 10,000 Haar draws and on u and -u with
    beta at 0 and pi, and 1e-13 and 1e-11 from each (one side of the pole
    test each), as a batch and one by one."""
    edges = []
    for beta in (0.0, 1e-13, 1e-11, np.pi - 1e-11, np.pi - 1e-13, np.pi):
        alpha, gamma = rng.uniform(0.0, 4.0 * np.pi, 50), rng.uniform(0.0, 2.0 * np.pi, 50)
        edges.append(_rotation_matrix(beta, alpha) @ _rotation_matrix(0.0, gamma))
    draws = np.concatenate([random_su2(rng, 10_000), *edges])
    for u in (draws, -draws):
        for got, want in zip(euler_zyz(u), _euler_by_rebuild(u)):
            assert got.tobytes() == want.tobytes()
        for one in u[-len(edges) * 50 :: 7]:
            got, want = euler_zyz(one), _euler_by_rebuild(one)
            assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("j1, j2", [(0.5, 0.5), (1, 0.5), (1.5, 1)])
def test_slot_matrix_is_the_kronecker_product_of_rep_matrices(j1, j2, rng):
    """_slot_matrix, the one builder of D^{j1} x D^{j2}, has the bytes of
    np.kron(rep_matrix(j1, u1), rep_matrix(j2, u2)), for one u in both
    slots (the rotations) and for a pair (the general-frame Wigner
    rotations)."""
    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    for u1, u2 in random_su2(rng, 40).reshape(20, 2, 2, 2):
        one = _slot_matrix(j1, j2, euler_zyz(u1[None]))
        assert one.tobytes() == np.kron(rep_matrix(j1, u1), rep_matrix(j2, u1)).tobytes()
        pair = _slot_matrix(j1, j2, euler_zyz(np.stack([u1, u2])))
        assert pair.tobytes() == np.kron(rep_matrix(j1, u1), rep_matrix(j2, u2)).tobytes()


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


def _racah_sum(tj1, tj2, tj, tm1, tm2) -> float:
    """<j1 m1 j2 m2 | j m1+m2> from Racah's factorial sum, one coefficient
    at a time, twice each label as an int: the scalar loop the block kernel
    replaced, kept as its bit oracle."""
    tm = tm1 + tm2
    pref = np.sqrt(
        (tj + 1.0)
        * _fact((tj + tj1 - tj2) // 2)
        * _fact((tj - tj1 + tj2) // 2)
        * _fact((tj1 + tj2 - tj) // 2)
        / _fact((tj1 + tj2 + tj) // 2 + 1)
        * _fact((tj + tm) // 2)
        * _fact((tj - tm) // 2)
        * _fact((tj1 - tm1) // 2)
        * _fact((tj1 + tm1) // 2)
        * _fact((tj2 - tm2) // 2)
        * _fact((tj2 + tm2) // 2)
    )
    kmin = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    kmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        den = (
            _fact(k)
            * _fact((tj1 + tj2 - tj) // 2 - k)
            * _fact((tj1 - tm1) // 2 - k)
            * _fact((tj2 + tm2) // 2 - k)
            * _fact((tj - tj2 + tm1) // 2 + k)
            * _fact((tj - tj1 - tm2) // 2 + k)
        )
        total += (-1.0) ** k / den
    return float(pref * total)


def test_cg_block_equals_the_scalar_racah_sum_bit_for_bit():
    """Every coupling with 2j1 + 2j2 <= 20 and 2j <= 20: each entry of the
    block is the scalar sum's float, byte for byte, where |m1 + m2| <= j,
    and 0 elsewhere (60,016 entries); the cached block is read-only."""
    entries = 0
    for tj1 in range(21):
        for tj2 in range(21 - tj1):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                block = _cg_block(tj1, tj2, tj)
                assert block.shape == (tj1 + 1, tj2 + 1) and not block.flags.writeable
                for (a, b), got in np.ndenumerate(block):
                    tm1, tm2 = tj1 - 2 * a, tj2 - 2 * b
                    if abs(tm1 + tm2) > tj:
                        assert got == 0.0
                    else:
                        want = _racah_sum(tj1, tj2, tj, tm1, tm2)
                        assert np.float64(want).tobytes() == got.tobytes(), (tj1, tj2, tj, a, b)
                    entries += 1
    assert entries == 60016


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
    """_harmonic_table is the rows of _harmonic_rows for l = l_min ...
    l_max, concatenated, bit for bit: at scalar angles (both poles and a
    signed zero among them), at flat node angles and on the grid's axes,
    with the lowest degrees left out or not."""
    grid = build_grid(16, 33)
    angles = [(grid.theta, grid.phi), grid.axes, (0.0, 0.3), (np.pi, -1.1), (0.7, -0.0)]
    for l_min, l_max in ((0, 0), (0, 1), (0, 2), (0, 3), (0, 15), (1, 2), (2, 3), (7, 15), (15, 15)):
        for theta, phi in angles:
            want = np.concatenate([_harmonic_rows(l, theta, phi) for l in range(l_min, l_max + 1)])
            got = _harmonic_table(l_max, theta, phi, l_min)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (l_min, l_max, np.shape(theta))
    with pytest.raises(InvalidOrbitalLabel, match="overflows"):
        _harmonic_table(86, 0.1, 0.1)


def test_quarter_turns_are_orthogonal_and_read_only():
    """Delta_l = d^l(pi/2), built by the spin-1 recursion, is orthogonal to
    1e-14 for every l <= 85 (measured at most 1.6e-15), is cached per
    degree and cannot be written; l = 86 raises as Y_lm does."""
    for l in range(86):
        delta = _quarter_turn(l)
        assert delta.shape == (2 * l + 1, 2 * l + 1)
        assert np.abs(delta @ delta.T - np.eye(2 * l + 1)).max() <= 1e-14, l
        assert _quarter_turn(l) is delta
        assert not delta.flags.writeable
    with pytest.raises(InvalidOrbitalLabel):
        _quarter_turn(86)


def test_quarter_turns_match_the_factorial_sum():
    """Where the factorial sum of wigner_d_small reaches (l <= 10), the
    recursion agrees with it (measured at most 1.1e-14)."""
    for l in range(11):
        assert np.abs(_quarter_turn(l) - wigner_d_small(l, np.pi / 2)).max() <= 1e-13, l


def _exact_quarter_turn_entry(l, mp, m):
    """d^l_{m' m}(pi/2) by the factorial sum in exact rationals. At pi/2,
    cos^{e1} sin^{e2} = 2^{-l} in every term, so the sum is
    2^{-l} sqrt((l+m')!(l-m')!(l+m)!(l-m)!) times a sum of rationals, taken
    as a Fraction; only the last square root rounds."""
    f, dm = math.factorial, mp - m
    total = sum(Fraction((-1) ** (dm + k), f(l + m - k) * f(k) * f(dm + k) * f(l - mp - k))
                for k in range(max(0, -dm), min(l + m, l - mp) + 1))
    square = total * total * f(l + mp) * f(l - mp) * f(l + m) * f(l - m) / 4**l
    return math.copysign(math.sqrt(square), total)


def test_quarter_turns_match_the_exact_sum_above_the_factorial_limit(rng):
    """Past l = 10, where the float factorial sum stops, the recursion
    agrees with the exact one at 60 seeded entries per degree l = 11, 20,
    40 and 85 within 1e-14 (measured at most 1.7e-16)."""
    for l in (11, 20, 40, 85):
        delta = _quarter_turn(l)
        for mp, m in rng.integers(-l, l + 1, size=(60, 2)).tolist():
            want = _exact_quarter_turn_entry(l, mp, m)
            assert abs(delta[l - mp, l - m] - want) <= 1e-14, (l, mp, m)


def _unit_coefficients(rng, l_max, columns):
    """Random coefficients c_lm (l <= l_max) of a unit norm per column, in
    the harmonic table's rows l**2 + l - m."""
    coeffs = rng.normal(size=((l_max + 1) ** 2, columns, 2)) @ [1.0, 1j]
    return coeffs / np.linalg.norm(coeffs, axis=0)


def _turns(rng):
    """Seeded rotations and the three kinds of pole: a turn about z
    (beta = 0), a half turn about y (beta = pi) and the identity."""
    half_turn_y = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    about_z = np.diag([np.exp(-0.35j), np.exp(0.35j)])
    return [random_su2(rng) for _ in range(3)] + [about_z, half_turn_y, np.eye(2, dtype=complex)]


def test_rotated_harmonics_are_the_dense_sum_at_the_preimages(rng):
    """Coefficients turned by D^l(u) in coefficient space and summed on the
    grid's own nodes equal the dense sum of the harmonic table at the
    preimage nodes u^-1 n within 1e-13 of the largest value (measured at
    most 2.3e-14), on 8x17, 16x33 and 24x49, for seeded rotations and at
    the poles of the Euler angles."""
    for shape in ((8, 17), (16, 33), (24, 49)):
        grid = build_grid(*shape)
        coeffs = _unit_coefficients(rng, grid.n_theta - 1, 3)
        for u in _turns(rng):
            want = _harmonic_table(grid.n_theta - 1, *_preimages(u, grid.theta, grid.phi)).T @ coeffs
            got = _harmonic_synthesis(grid, _rotated_harmonics(dense_coefficients(coeffs), *euler_zyz(u)))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), shape


def test_rotated_harmonics_compose(rng):
    """A turn by u, then by v, equals one turn by v u within 1e-13 (unit
    coefficients; measured at most 3.1e-15, at l_max = 85)."""
    for l_max in (0, 1, 15, 47, 85):
        coeffs = dense_coefficients(_unit_coefficients(rng, l_max, 2))
        turns = _turns(rng)
        for u, v in zip(turns, turns[::-1]):
            twice = coefficient_rows(_rotated_harmonics(_rotated_harmonics(coeffs, *euler_zyz(u)), *euler_zyz(v)))
            once = coefficient_rows(_rotated_harmonics(coeffs, *euler_zyz(v @ u)))
            assert np.abs(twice - once).max() <= 1e-13, l_max


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
