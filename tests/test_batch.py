"""The batched Lorentz layer: every batched call equals the stack of its
scalar calls bit for bit, the group laws hold for every member, and a bad
member raises what its own scalar call raises."""

import numpy as np
import pytest

from conftest import quaternion_su2
from poincare_cgc import su2
from poincare_cgc.cgc import inverse_com_wigner, relative_momentum
from poincare_cgc.errors import BelowThreshold, MasslessUnsupported, NotARotation
from poincare_cgc.lorentz import (
    METRIC,
    FourMomentum,
    SpinorTransform,
    apply_lorentz,
    canonical_boost,
    direction_rotation,
    helicity_boost,
    pauli_pair,
    require_su2,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)

EPS = np.finfo(float).eps
CONVENTIONS = ("canonical", "helicity")


def _directions(rng, n):
    """n unit vectors: 300 of random direction, then 100 on the +z or -z
    axis and 100 on the phi = 0 seam (y = +0, -0 or just below 0, x > 0)."""
    rand = rng.normal(size=(n - 200, 3))
    axis = np.zeros((100, 3))
    axis[:, 2] = np.where(np.arange(100) % 2, -1.0, 1.0)
    seam = np.zeros((100, 3))
    seam[:, 0] = rng.uniform(0.1, 1.0, 100)
    seam[:, 2] = rng.normal(size=100)
    seam[1::3, 1] = -0.0
    seam[2::3, 1] = -1e-300
    dirs = np.concatenate([rand, axis, seam])
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def _draws(seed, max_rapidity, n=500):
    """Masses squared s and spatial momenta k of n seeded draws, rapidity
    uniform up to max_rapidity; ten of the z-axis draws are at rest."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.25, 4.0, n)
    eta = rng.uniform(0.0, max_rapidity, n)
    eta[n - 200 : n - 190] = 0.0
    return s, (np.sqrt(s) * np.sinh(eta))[:, None] * _directions(rng, n)


def _group(seed, n, max_rapidity):
    """n seeded SL(2,C) elements: a canonical boost of rapidity up to
    max_rapidity times a Haar rotation."""
    rng = np.random.default_rng(seed)
    rapidity = rng.uniform(0.0, max_rapidity, n)
    n_hat = rng.normal(size=(n, 3))
    n_hat /= np.linalg.norm(n_hat, axis=-1, keepdims=True)
    boost = canonical_boost(FourMomentum.on_shell(1.0, np.sinh(rapidity)[:, None] * n_hat))
    return (boost @ SpinorTransform(quaternion_su2(rng.normal(size=(n, 4))))).matrix


def _assert_same_bits(batch, singles):
    want = np.array(singles)
    got = np.asarray(batch)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.fixture(scope="module")
def momenta():
    s, k = _draws(301, 10.0)
    return s, k, FourMomentum.on_shell(s, k), [FourMomentum.on_shell(a, b) for a, b in zip(s, k)]


def test_four_momenta_match_their_scalars(momenta):
    s, k, batch, singles = momenta
    assert len(singles) >= 500
    _assert_same_bits(batch.energy, [p.energy for p in singles])
    _assert_same_bits(batch.mass2, [p.mass2 for p in singles])
    _assert_same_bits(batch.pabs, [p.pabs for p in singles])
    _assert_same_bits(batch.as_array(), [p.as_array() for p in singles])
    _assert_same_bits(pauli_pair(batch), [pauli_pair(p) for p in singles])
    rest = FourMomentum.rest(s)
    _assert_same_bits(rest.energy, [FourMomentum.rest(a).energy for a in s])
    twice = batch + batch
    _assert_same_bits(twice.as_array(), [(p + p).as_array() for p in singles])


def test_boosts_match_their_scalars(momenta):
    s, _, batch, singles = momenta
    for boost in (canonical_boost, helicity_boost):
        _assert_same_bits(boost(batch).matrix, [boost(p).matrix for p in singles])
        _assert_same_bits(boost(batch, s).matrix, [boost(p, a).matrix for p, a in zip(singles, s)])
    for convention in CONVENTIONS:
        got = standard_boost(batch, s, convention).matrix
        _assert_same_bits(got, [standard_boost(p, a, convention).matrix for p, a in zip(singles, s)])
    _assert_same_bits(direction_rotation(batch).matrix, [direction_rotation(p).matrix for p in singles])


def test_group_operations_match_their_scalars(momenta):
    _, _, batch, singles = momenta
    a, b = _group(302, len(singles), 10.0), _group(303, len(singles), 10.0)
    ga, gb = SpinorTransform(a), SpinorTransform(b)
    products = [(SpinorTransform(x) @ SpinorTransform(y)).matrix for x, y in zip(a, b)]
    _assert_same_bits((ga @ gb).matrix, products)
    _assert_same_bits(ga.inverse().matrix, [SpinorTransform(x).inverse().matrix for x in a])
    _assert_same_bits(ga.unitarity_defect(), [SpinorTransform(x).unitarity_defect() for x in a])
    _assert_same_bits(spinor_to_lorentz(a), [spinor_to_lorentz(x) for x in a])
    images = [apply_lorentz(x, p).as_array() for x, p in zip(a, singles)]
    _assert_same_bits(apply_lorentz(a, batch).as_array(), images)
    # leading axes broadcast: one element over many momenta, many over one
    images = [apply_lorentz(a[0], p).as_array() for p in singles]
    _assert_same_bits(apply_lorentz(a[0], batch).as_array(), images)
    images = [apply_lorentz(x, singles[7]).as_array() for x in a]
    _assert_same_bits(apply_lorentz(a, singles[7]).as_array(), images)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_wigner_rotations_and_their_d_matrices_match_their_scalars(convention):
    """Momenta up to rapidity 5, where W(alpha, p) still passes the
    unimodularity check (README, on the Lorentz layer's batches)."""
    s, k = _draws(304, 5.0)
    batch = FourMomentum.on_shell(s, k)
    singles = [FourMomentum.on_shell(a, b) for a, b in zip(s, k)]
    alpha = _group(305, len(singles), 2.0)
    w = wigner_rotation(alpha, batch, convention).matrix
    _assert_same_bits(w, [wigner_rotation(x, p, convention).matrix for x, p in zip(alpha, singles)])
    _assert_same_bits(require_su2(w), [require_su2(x) for x in w])
    angles = su2.euler_zyz(w)
    for axis in range(3):
        _assert_same_bits(angles[axis], [su2.euler_zyz(x)[axis] for x in w])
    for j in (0, 0.5, 1, 1.5, 2):
        _assert_same_bits(su2.rep_matrix(j, w), [su2.rep_matrix(j, x) for x in w])
    # a 2-d batch gives the flat batch's members
    grid = wigner_rotation(alpha.reshape(20, 25, 2, 2), batch[np.arange(500).reshape(20, 25)], convention)
    _assert_same_bits(grid.matrix, w.reshape(20, 25, 2, 2))
    _assert_same_bits(su2.rep_matrix(1, w.reshape(25, 20, 2, 2)), su2.rep_matrix(1, w).reshape(25, 20, 3, 3))


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_pair_frames_match_their_scalars(convention):
    """inverse_com_wigner and relative_momentum over seeded pairs of unequal
    masses, boosted up to rapidity 3."""
    s1, k1 = _draws(306, 3.0)
    s2, k2 = _draws(307, 3.0)
    p1, p2 = FourMomentum.on_shell(s1, k1), FourMomentum.on_shell(s2, k2)
    ones = [(FourMomentum.on_shell(a, b), FourMomentum.on_shell(c, d)) for a, b, c, d in zip(s1, k1, s2, k2)]
    threshold = (np.sqrt(s1) + np.sqrt(s2)) ** 2 * (1 + 1e-9)
    keep = [i for i, (a, b) in enumerate(ones) if (a + b).mass2 > threshold[i]]
    p1, p2, ones = p1[keep], p2[keep], [ones[i] for i in keep]
    assert len(ones) >= 450
    got = inverse_com_wigner(p1 + p2, p1, convention).matrix
    _assert_same_bits(got, [inverse_com_wigner(a + b, a, convention).matrix for a, b in ones])
    got = relative_momentum(p1, p2, convention)
    _assert_same_bits(got, [relative_momentum(a, b, convention) for a, b in ones])


def test_group_laws_hold_for_every_member():
    """Homomorphism and metric at rapidity up to 10 (measured: 4.3 and 6.7
    eps relative to the size of the Lorentz matrices), and W(u, p) = u for
    canonical boosts up to rapidity 5 (measured 2.4 eps cosh^2)."""
    a, b = _group(308, 500, 10.0), _group(309, 500, 10.0)
    la, lb = spinor_to_lorentz(a), spinor_to_lorentz(b)
    lab = spinor_to_lorentz(SpinorTransform(a) @ SpinorTransform(b))
    size = lambda m: np.abs(m).max(axis=(-2, -1))  # noqa: E731
    assert np.all(np.abs(lab - la @ lb).max(axis=(-2, -1)) <= 50 * EPS * size(la) * size(lb))
    metric = np.abs(np.swapaxes(la, -1, -2) @ METRIC @ la - METRIC).max(axis=(-2, -1))
    assert np.all(metric <= 50 * EPS * size(la) ** 2)
    s, k = _draws(310, 5.0)
    p = FourMomentum.on_shell(s, k)
    u = quaternion_su2(np.random.default_rng(311).normal(size=(500, 4)))
    w = wigner_rotation(u, p).matrix
    rapidity = np.arccosh(p.energy / np.sqrt(s))
    assert np.all(np.abs(w - u).max(axis=(-2, -1)) <= 25 * EPS * np.cosh(rapidity) ** 2)


def _raises_as_scalar(batch_call, scalar_call):
    """The batch call raises the exception type and message of the scalar call."""
    with pytest.raises(ValueError) as single:
        scalar_call()
    with pytest.raises(ValueError) as batch:
        batch_call()
    assert type(batch.value) is type(single.value)
    assert str(batch.value) == str(single.value)
    return batch.value


@pytest.fixture
def five():
    s, k = _draws(312, 3.0, n=205)
    return s[:5], k[:5], FourMomentum.on_shell(s[:5], k[:5])


def test_off_shell_member_raises_as_its_scalar(five):
    s, k, p = five
    shell = s.copy()
    shell[3] *= 1.5
    err = _raises_as_scalar(lambda: canonical_boost(p, shell), lambda: canonical_boost(p[3], shell[3]))
    assert "off shell" in str(err)
    _raises_as_scalar(lambda: helicity_boost(p, shell), lambda: helicity_boost(p[3], shell[3]))


def test_non_positive_mass_member_raises_as_its_scalar(five):
    s, k, p = five
    bad = s.copy()
    bad[2] = 0.0
    err = _raises_as_scalar(
        lambda: FourMomentum.on_shell(bad, k), lambda: FourMomentum.on_shell(bad[2], k[2])
    )
    assert isinstance(err, MasslessUnsupported)
    bad[2] = -1.0
    err = _raises_as_scalar(lambda: canonical_boost(p, bad), lambda: canonical_boost(p[2], bad[2]))
    assert isinstance(err, MasslessUnsupported)
    light = FourMomentum(np.linalg.norm(k, axis=-1), k)  # E = |p|: massless
    _raises_as_scalar(lambda: canonical_boost(light), lambda: canonical_boost(light[0]))


def test_non_finite_member_raises_as_its_scalar(five):
    s, k, p = five
    energy = p.energy.copy()
    energy[1] = np.nan
    err = _raises_as_scalar(lambda: FourMomentum(energy, k), lambda: FourMomentum(energy[1], k[1]))
    assert "finite" in str(err)
    vec = k.copy()
    vec[4, 2] = np.inf
    energy = p.energy
    _raises_as_scalar(lambda: FourMomentum(energy, vec), lambda: FourMomentum(energy[4], vec[4]))


def test_non_unimodular_member_raises_as_its_scalar():
    m = _group(313, 6, 2.0)
    m[4] = 2.0 * np.eye(2)
    err = _raises_as_scalar(lambda: SpinorTransform(m), lambda: SpinorTransform(m[4]))
    assert "unimodular" in str(err)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_matrix_member_raises_as_its_scalar():
    m = _group(314, 6, 2.0)
    m[2, 0, 1] = np.nan
    _raises_as_scalar(lambda: SpinorTransform(m), lambda: SpinorTransform(m[2]))
    u = quaternion_su2(np.random.default_rng(315).normal(size=(6, 4)))
    u[5, 1, 1] = np.inf
    _raises_as_scalar(lambda: require_su2(u), lambda: require_su2(u[5]))


@pytest.mark.parametrize("check", [require_su2, lambda u: su2.rep_matrix(1, u), su2.euler_zyz])
def test_member_outside_su2_raises_as_its_scalar(check):
    u = quaternion_su2(np.random.default_rng(316).normal(size=(6, 4)))
    u[3] = _group(317, 1, 2.0)[0]  # a boost: unimodular, not unitary
    err = _raises_as_scalar(lambda: check(u), lambda: check(u[3]))
    assert isinstance(err, NotARotation) and "not unitary" in str(err)
    u[3] = np.diag([1.0, -1.0])  # unitary, determinant -1
    err = _raises_as_scalar(lambda: check(u), lambda: check(u[3]))
    assert isinstance(err, NotARotation) and "unit determinant" in str(err)


def test_pair_at_threshold_raises_as_its_scalar(five):
    s, k, p = five
    back = -k
    back[3] = k[3]  # the same momentum and mass: this pair sits at threshold
    q = FourMomentum.on_shell(s, back)
    err = _raises_as_scalar(lambda: relative_momentum(p, q), lambda: relative_momentum(p[3], q[3]))
    assert isinstance(err, BelowThreshold)
