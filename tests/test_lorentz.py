"""Spinor-to-Lorentz map, standard boosts and little-group elements."""

import numpy as np
import pytest

from conftest import random_momentum, random_sl2c, random_su2
from poincare_cgc.errors import MasslessUnsupported, NotARotation
from poincare_cgc.lorentz import (
    METRIC,
    FourMomentum,
    SpinorTransform,
    apply_lorentz,
    canonical_boost,
    direction_rotation,
    helicity_boost,
    is_proper_orthochronous,
    pauli_pair,
    polar_angles,
    require_su2,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)


def test_four_momentum_basics():
    p = FourMomentum.on_shell(4.0, np.array([0.0, 0.0, 3.0]))
    assert abs(p.energy - np.sqrt(13.0)) < 1e-15
    assert abs(p.mass2 - 4.0) < 1e-12
    assert abs(p.pabs - 3.0) < 1e-15
    q = FourMomentum.from_array(p.as_array())
    assert np.allclose(q.as_array(), p.as_array())
    r = FourMomentum.rest(9.0)
    assert r.energy == 3.0 and r.pabs == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_four_momentum_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        FourMomentum(bad, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        FourMomentum(1.0, [0.0, bad, 0.0])
    with pytest.raises(ValueError, match="finite"):
        FourMomentum.on_shell(1.0, [bad, 0.0, 0.0])


def test_four_momentum_rejects_a_spatial_part_that_is_not_a_3_vector():
    with pytest.raises(ValueError, match="3-vector"):
        FourMomentum(1.0, [0.0, 0.5])


def test_group_element_checks_reject_a_3x3_matrix():
    with pytest.raises(ValueError, match="2x2"):
        SpinorTransform(np.eye(3))
    with pytest.raises(NotARotation, match="2x2"):
        require_su2(np.eye(3))


def test_spinor_transform_group_law(rng):
    a, b = random_sl2c(rng), random_sl2c(rng)
    comp = a @ b
    assert np.allclose(comp.matrix, a.matrix @ b.matrix)
    ident = a @ a.inverse()
    assert np.allclose(ident.matrix, np.eye(2), atol=1e-12)
    with pytest.raises(TypeError):  # the group element is the matrix alone
        SpinorTransform(a.matrix, translation=np.zeros(4))


def test_spinor_transform_rejects_non_unimodular():
    with pytest.raises(ValueError):
        SpinorTransform(2.0 * np.eye(2))


def test_identity_maps_to_identity():
    assert np.allclose(spinor_to_lorentz(np.eye(2)), np.eye(4), atol=1e-14)


def test_pauli_pair_determinant_is_mass2(rng):
    for _ in range(20):
        p = random_momentum(rng, 2.5, 5.0)
        det = np.linalg.det(pauli_pair(p))
        assert abs(det.real - p.mass2) < 1e-9 * max(1.0, p.energy**2)


def test_homomorphism_and_metric(rng):
    for _ in range(100):
        a, b = random_sl2c(rng), random_sl2c(rng)
        lab = spinor_to_lorentz((a @ b).matrix)
        la, lb = spinor_to_lorentz(a.matrix), spinor_to_lorentz(b.matrix)
        assert np.max(np.abs(lab - la @ lb)) < 1e-10
        assert np.max(np.abs(la.T @ METRIC @ la - METRIC)) < 1e-10
        assert is_proper_orthochronous(la)


def test_two_to_one_cover(rng):
    a = random_sl2c(rng)
    assert np.allclose(
        spinor_to_lorentz(a.matrix), spinor_to_lorentz(-a.matrix), atol=1e-12
    )


def test_polar_angles_poles_and_roundtrip(rng):
    assert polar_angles(np.array([0.0, 0.0, 2.0])) == (0.0, 0.0)
    theta, phi = polar_angles(np.array([0.0, 0.0, -1.0]))
    assert theta == pytest.approx(np.pi) and phi == 0.0
    assert polar_angles(np.zeros(3)) == (0.0, 0.0)
    v = rng.normal(size=3)
    theta, phi = polar_angles(v)
    r = np.linalg.norm(v)
    rebuilt = r * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    assert np.allclose(rebuilt, v, atol=1e-12)


@pytest.mark.parametrize("convention", ["canonical", "helicity"])
def test_standard_boosts_restore_momentum(rng, convention):
    rest = FourMomentum.rest(1.0)
    for _ in range(300):
        p = random_momentum(rng, 1.0, 1e3)
        got = apply_lorentz(standard_boost(p, convention=convention), rest)
        assert np.max(np.abs(got.as_array() - p.as_array())) < 1e-10 * p.energy


def test_large_boosts_pass_the_unimodularity_check(rng):
    """The determinant of a boost rounds to about eps e^rapidity, so the
    check scales its 1e-12 bound with the largest entry squared; with a
    plain bound some boosts of rapidity 10 and most of rapidity 12 raised."""
    rest = FourMomentum.rest(1.0)
    for _ in range(100):
        n = rng.normal(size=3)
        p = FourMomentum.on_shell(1.0, np.sinh(12.0) * n / np.linalg.norm(n))
        got = apply_lorentz(canonical_boost(p, 1.0), rest)  # E^2 - |p|^2 keeps s to eps (E/m)^2 only
        assert np.max(np.abs(got.as_array() - p.as_array())) < 1e-10 * p.energy
    with pytest.raises(ValueError, match="unimodular"):  # a large non-unimodular matrix still fails
        SpinorTransform(np.array([[1e3, 0.0], [0.0, 1.001e-3]]))


def test_canonical_boost_hermitian_positive(rng):
    p = random_momentum(rng, 1.0, 10.0)
    mat = canonical_boost(p).matrix
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(mat) > 0.0)


def test_helicity_boost_factorization(rng):
    p = random_momentum(rng, 1.0, 10.0)
    p_z = FourMomentum(p.energy, np.array([0.0, 0.0, p.pabs]))
    want = direction_rotation(p).matrix @ canonical_boost(p_z).matrix
    assert np.allclose(helicity_boost(p).matrix, want, atol=1e-12)


def test_boost_rejects_off_shell_and_massless():
    with pytest.raises(MasslessUnsupported):
        canonical_boost(FourMomentum(1.0, np.array([0.0, 0.0, 1.0])))
    p = FourMomentum.on_shell(1.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        canonical_boost(p, s=2.0)
    with pytest.raises(ValueError):
        standard_boost(p, convention="sideways")


def test_direction_rotation_carries_z_axis(rng):
    v = rng.normal(size=3)
    rot = spinor_to_lorentz(direction_rotation(v).matrix)
    image = rot @ np.array([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(image[1:], v / np.linalg.norm(v), atol=1e-12)


def test_wigner_rotation_in_su2(rng):
    for k in range(300):
        alpha = random_sl2c(rng)
        p = random_momentum(rng, 1.0, 50.0)
        convention = ("canonical", "helicity")[k % 2]
        w = wigner_rotation(alpha, p, convention)
        assert w.unitarity_defect() < 1e-10
        det = np.linalg.det(w.matrix)
        assert abs(det - 1.0) < 1e-10


def test_canonical_wigner_rotation_of_rotation_is_itself(rng):
    """Little-group elements of pure rotations reproduce the rotation.

    The often-quoted simplification that they collapse to the identity is
    wrong; the canonical-boost construction gives back u itself.
    """
    for _ in range(100):
        u = random_su2(rng)
        p = random_momentum(rng, 1.0, 20.0)
        w = wigner_rotation(SpinorTransform(u), p, "canonical")
        assert np.max(np.abs(w.matrix - u)) < 1e-10
        assert not np.allclose(w.matrix, np.eye(2), atol=1e-3)


def test_helicity_wigner_rotation_is_z_rotation(rng):
    for _ in range(100):
        u = random_su2(rng)
        p = random_momentum(rng, 1.0, 20.0)
        w = wigner_rotation(SpinorTransform(u), p, "helicity").matrix
        assert abs(w[0, 1]) < 1e-10 and abs(w[1, 0]) < 1e-10
        assert abs(abs(w[0, 0]) - 1.0) < 1e-10


def test_helicity_wigner_rotation_mass_independent(rng):
    """The z-rotation angle depends on directions only, not on the mass."""
    u = random_su2(rng)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    phases = []
    for s, scale in ((1.0, 2.0), (25.0, 2.0)):
        p = FourMomentum.on_shell(s, np.sqrt(s) * scale * n)
        w = wigner_rotation(SpinorTransform(u), p, "helicity").matrix
        phases.append(w[0, 0])
    assert abs(phases[0] - phases[1]) < 1e-10


def test_wigner_rotation_composes(rng):
    """W(ab, p) = W(a, Lambda(b)p) W(b, p) for both conventions."""
    for convention in ("canonical", "helicity"):
        a, b = random_sl2c(rng), random_sl2c(rng)
        p = random_momentum(rng, 1.0, 5.0)
        lhs = wigner_rotation(a @ b, p, convention).matrix
        rhs = (
            wigner_rotation(a, apply_lorentz(b, p), convention).matrix
            @ wigner_rotation(b, p, convention).matrix
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_require_su2(rng):
    u = require_su2(random_su2(rng))
    assert u.shape == (2, 2)
    with pytest.raises(NotARotation):
        require_su2(canonical_boost(random_momentum(rng, 1.0, 5.0)))
    with pytest.raises(NotARotation):
        require_su2(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_group_element_checks_reject_non_finite_entries(bad):
    """A NaN entry makes every "residual > tol" comparison False; the checks
    must reject it rather than pass it on (inf * 0 warns on the way)."""
    for m in ([[bad, 0.0], [0.0, 1.0]], [[0.0, 1j * bad], [1.0, 0.0]]):
        with pytest.raises(NotARotation, match="not unitary"):
            require_su2(np.array(m))
        with pytest.raises(ValueError, match="unimodular"):
            SpinorTransform(np.array(m))
