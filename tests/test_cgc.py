"""Tests for coupling channels, two-body kinematics, and coupling amplitudes."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_momentum, random_sl2c, random_su2

import poincare_cgc.cgc as cgc_module

from poincare_cgc import (
    BelowThreshold,
    FourMomentum,
    HalfInt,
    HelicityChannel,
    InvalidChannel,
    Kinematics,
    MasslessUnsupported,
    SpinOrbitChannel,
    TwoParticleSpec,
    angular_helicity_com,
    angular_helicity_general,
    angular_spin_orbit_com,
    angular_spin_orbit_general,
    apply_lorentz,
    canonical_boost,
    com_momentum,
    com_normalization,
    component_index,
    components,
    coupling_channels,
    discrete_symmetry_labels,
    enumerate_channels,
    helicity_com_scalar,
    helicity_com_table,
    helicity_general_table,
    helicity_to_wigner,
    relative_direction,
    relative_momentum,
    rep_matrix,
    spin_orbit_com_table,
    spin_orbit_general_table,
    wigner_d_small,
    wigner_rotation,
)
from poincare_cgc.cgc import inverse_com_wigner, triangle
from poincare_cgc.states import build_grid
from poincare_cgc.lorentz import direction_rotation, polar_angles, spinor_to_lorentz
from poincare_cgc.reference_tables import CHANNEL_ROWS, reference_cells, variant_cells

FERMION_PAIR = TwoParticleSpec.fermion_pair(1.0)
PAIR_S = 9.0


def test_spec_validation():
    spec = TwoParticleSpec.fermion_pair(1.0)
    assert spec.spin_shape == (2, 2)
    assert spec.j1 == HalfInt.of(0.5) and spec.s2 == 1.0
    assert TwoParticleSpec.fermion_pair(1.0, 4.0).s2 == 4.0
    with pytest.raises(MasslessUnsupported):
        TwoParticleSpec.fermion_pair(0.0)
    with pytest.raises(ValueError):
        TwoParticleSpec(1.0, 1.0, -0.5, 0.5)


@pytest.mark.parametrize(
    "j, labels",
    [
        (0, ["l=0,s=0", "l=1,s=1"]),
        (1, ["l=1,s=0", "l=0,s=1", "l=1,s=1", "l=2,s=1"]),
        (2, ["l=2,s=0", "l=1,s=1", "l=2,s=1", "l=3,s=1"]),
    ],
)
def test_spin_orbit_channel_enumeration(j, labels):
    """Channels come out ordered by total spin s, then by orbital l."""
    chans = enumerate_channels(FERMION_PAIR, j, "spin-orbit")
    assert [c.label() for c in chans] == labels
    assert coupling_channels(FERMION_PAIR, j, "spin-orbit") == chans


def test_spin_orbit_enumeration_parity_filter():
    # two spin-1/2 constituents cannot couple to half-integer total spin
    assert enumerate_channels(FERMION_PAIR, 0.5, "spin-orbit") == []
    mixed = TwoParticleSpec(1.0, 1.0, 1.0, 0.5)
    labels = [c.label() for c in enumerate_channels(mixed, 0.5, "spin-orbit")]
    assert labels == ["l=0,s=1/2", "l=1,s=1/2", "l=1,s=3/2", "l=2,s=3/2"]


def test_helicity_channel_enumeration():
    """The helicity grid is fixed; coupling keeps only |lam1 - lam2| <= j."""
    chans = enumerate_channels(FERMION_PAIR, 1, "helicity")
    labels = [c.label() for c in chans]
    assert labels == [
        "lam1=1/2,lam2=1/2",
        "lam1=1/2,lam2=-1/2",
        "lam1=-1/2,lam2=1/2",
        "lam1=-1/2,lam2=-1/2",
    ]
    assert enumerate_channels(FERMION_PAIR, 0, "helicity") == chans
    kept = coupling_channels(FERMION_PAIR, 0, "helicity")
    assert [c.label() for c in kept] == ["lam1=1/2,lam2=1/2", "lam1=-1/2,lam2=-1/2"]
    assert coupling_channels(FERMION_PAIR, 1, "helicity") == chans
    # the dropped channels really do carry an identically zero amplitude
    dropped = HelicityChannel(0.5, -0.5)
    theta = np.linspace(0.1, 3.0, 7)
    assert np.all(helicity_com_scalar(FERMION_PAIR, 0, dropped, 0, theta, 0.3) == 0.0)


def test_channel_labels_and_validation():
    assert SpinOrbitChannel(2, 1).label() == "l=2,s=1"
    assert HelicityChannel(0.5, -0.5).mu == HalfInt.of(1)
    with pytest.raises(InvalidChannel):
        SpinOrbitChannel(0.5, 1)
    with pytest.raises(InvalidChannel):
        SpinOrbitChannel(-1, 1)
    with pytest.raises(ValueError):
        enumerate_channels(FERMION_PAIR, 1, "canonical")


@pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("s", [0, 1])
def test_discrete_symmetry_labels(l, s):
    parity, charge = discrete_symmetry_labels(l, s)
    assert parity == (-1) ** (l + 1)
    assert charge == (-1) ** (l + s)


def test_discrete_symmetry_label_validation():
    with pytest.raises(InvalidChannel):
        discrete_symmetry_labels(0.5, 1)
    with pytest.raises(InvalidChannel):
        discrete_symmetry_labels(-1, 0)
    with pytest.raises(InvalidChannel):
        discrete_symmetry_labels(1, 2)


def test_channel_table_rows_reproduced():
    """The frozen six-row channel table comes out of enumeration plus labels."""
    got = []
    for j in (0, 1):
        for channel in enumerate_channels(FERMION_PAIR, j, "spin-orbit"):
            parity, charge = discrete_symmetry_labels(channel.l, channel.s)
            got.append((HalfInt.of(j), channel.s, channel.l, parity, charge))
    want = [(r.j, r.s, r.l, r.parity, r.charge_parity) for r in CHANNEL_ROWS]
    assert got == want


def test_variant_charge_parity_rows_are_inconsistent():
    """The deviating signs assign opposite charge parity to one (l, s) pair.

    The (s=1, l=1) channel occurs under both j=0 and j=1. The stored
    variant keeps +1 for the first and flips the second to -1, so no
    function of (l, s) alone can reproduce the variant column.
    """
    variants = [r for r in CHANNEL_ROWS if r.variant_charge_parity is not None]
    assert len(variants) == 2
    for row in variants:
        assert row.variant_charge_parity == -row.charge_parity
    same = [r for r in CHANNEL_ROWS if (r.l, r.s) == (HalfInt(2), HalfInt(2))]
    signs = {r.variant_charge_parity or r.charge_parity for r in same}
    assert signs == {-1, +1}


def test_triangle_function():
    assert triangle(9.0, 1.0, 1.0) == 45.0
    assert triangle(16.0, 1.0, 4.0) == 105.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = rng.uniform(0.1, 30.0, size=3)
        assert triangle(a, b, c) == triangle(c, a, b) == triangle(b, c, a)


@pytest.mark.parametrize("m1, m2", [(1.0, 1.0), (1.0, 1.5), (0.3, 2.0), (1.0, 0.001)])
def test_triangle_is_exact_just_above_threshold(m1, m2):
    """1e-12 above threshold the expanded terms cancel: the float expansion
    was off by up to 11% (masses 1 and 0.001). triangle equals the exact
    value of its float inputs rounded once, in every argument order. The
    momentum and the normalization read that float: sqrt(triangle / 4s)
    and sqrt(1/2) triangle^(1/4), bit for bit."""
    s, s1, s2 = (m1 + m2) ** 2 * (1.0 + 1e-12), m1 * m1, m2 * m2
    x, y, z = Fraction(s), Fraction(s1), Fraction(s2)
    want = float(x * x + y * y + z * z - 2 * (x * y + y * z + z * x))
    for args in itertools.permutations((s, s1, s2)):
        assert triangle(*args) == want
    assert com_momentum(s, s1, s2) == Kinematics(s, s1, s2).k == float(np.sqrt(want / (4.0 * s)))
    assert com_normalization(s, s1, s2) == float(np.sqrt(0.5) * want**0.25)


def test_threshold_test_is_exact():
    """Just above threshold a pair either raises BelowThreshold or has a
    positive momentum. The float test sqrt(s) > sqrt(s1) + sqrt(s2) passed
    points whose exact triangle is negative or zero, such as the first one
    here, giving them a zero or NaN momentum."""
    with pytest.raises(BelowThreshold):
        com_momentum(15.68644945365679, 5.487025574434067, 2.6184811639817016)
    rng = np.random.default_rng(11)
    for m1, m2 in rng.uniform(0.01, 3.0, size=(300, 2)):
        s = (m1 + m2) ** 2
        for _ in range(4):
            s = float(np.nextafter(s, np.inf))
            try:
                k = com_momentum(s, m1 * m1, m2 * m2)
            except BelowThreshold:
                continue
            assert k > 0.0 and com_normalization(s, m1 * m1, m2 * m2) > 0.0


def _sqrt_of(r: Fraction) -> float:
    """sqrt of a positive Fraction, to far more bits than a float holds."""
    return float(Fraction(math.isqrt(r.numerator * 4**600 // r.denominator), 2**600))


def _exact_triangle_of(s, s1, s2) -> Fraction:
    x, y, z = Fraction(s), Fraction(s1), Fraction(s2)
    return x * x + y * y + z * z - 2 * (x * y + y * z + z * x)


@pytest.mark.parametrize("s, s1, s2", [(1e200, 1.0, 1.0), (4e-170, 9e-171, 9e-171)])
def test_threshold_quantities_beyond_the_float_triangle(s, s1, s2):
    """These triangles are no floats: about 1e400, which overflows (triangle
    raises OverflowError), and about 2e-340, which rounds to zero. The
    momentum and the normalization are floats, and both are read from the
    exact triangle."""
    exact = _exact_triangle_of(s, s1, s2)
    if exact > 1:
        with pytest.raises(OverflowError):
            triangle(s, s1, s2)
    else:
        assert triangle(s, s1, s2) == 0.0
    k = com_momentum(s, s1, s2)
    assert k == pytest.approx(math.sqrt(exact / (4 * Fraction(s))), rel=1e-15, abs=0.0)
    assert Kinematics(s, s1, s2).k == k
    log_exact = math.log(exact.numerator) - math.log(exact.denominator)
    want = math.sqrt(0.5) * math.exp(log_exact / 4)
    assert com_normalization(s, s1, s2) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [2e-158, 2e-160])
def test_momentum_is_exact_where_the_triangle_is_subnormal(s):
    """These triangles (8e-317 and 8e-321) are subnormal floats, too short
    for a momentum good to 1e-15; the momentum reads the exact triangle."""
    s1 = s2 = s / 5
    assert 0.0 < triangle(s, s1, s2) < 2.3e-308
    want = _sqrt_of(_exact_triangle_of(s, s1, s2) / (4 * Fraction(s)))
    k = com_momentum(s, s1, s2)
    assert k == pytest.approx(want, rel=1e-15, abs=0.0)
    assert Kinematics(s, s1, s2).k == k


def test_relative_momentum_beyond_the_float_triangle():
    """At s = 1e200 with s1 = s2 = 1e199 the triangle (6e399) overflows a
    float. relative_momentum reads it scaled: a unit vector normalized by
    the exact triangle of the momenta's masses, and the general-frame
    tables there are finite."""
    kin = Kinematics(1e200, 1e199, 1e199)
    n = np.array([0.3, -0.2, 0.9])
    p1, p2 = kin.momenta(n)
    with pytest.raises(OverflowError):
        triangle((p1 + p2).mass2, p1.mass2, p2.mass2)
    e = relative_momentum(p1, p2)
    s = Fraction((p1 + p2).mass2)
    want = _sqrt_of(s / _exact_triangle_of(s, p1.mass2, p2.mass2)) * np.linalg.norm(p1.p - p2.p)
    assert e[0] == 0.0
    assert np.linalg.norm(e[1:]) == pytest.approx(want, rel=1e-15)
    assert np.abs(e[1:] - n / np.linalg.norm(n)).max() < 1e-15
    spec = TwoParticleSpec(1e199, 1e199, 0.5, 0.5)
    for table_fn, channel in (
        (spin_orbit_general_table, SpinOrbitChannel(1, 1)),
        (helicity_general_table, HelicityChannel(0.5, -0.5)),
    ):
        assert np.isfinite(table_fn(spec, 1, channel, 0, p1, p2)).all()


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [0.0, -np.inf, 1.0]])
def test_momenta_reject_a_zero_or_non_finite_direction(direction):
    """The direction is checked before it is normalized: no 0/0 warning,
    and the error names the direction, not the momenta."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction"):
            kin.momenta(direction)


@pytest.mark.parametrize(
    "direction, unit",
    [
        ([1e200, 1e200, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([3e-170, 4e-170, 0.0], [0.6, 0.8, 0.0]),
    ],
)
def test_momenta_accept_a_direction_whose_squared_norm_leaves_the_floats(direction, unit):
    """A squared norm that overflows or underflows is no reason to reject
    a finite, nonzero direction, and raises no warning either."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kin.momenta(direction)
    for p, want in zip(got, kin.momenta(unit)):
        np.testing.assert_allclose(p.as_array(), want.as_array(), rtol=1e-15, atol=0.0)


def test_triangle_rejects_non_finite_arguments():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            triangle(9.0, bad, 1.0)


def test_kinematics_hand_values():
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    assert kin.delta == 45.0
    assert kin.k == pytest.approx(np.sqrt(1.25), abs=1e-15)
    assert kin.e1 == kin.e2 == 1.5
    uneven = Kinematics(16.0, 1.0, 4.0)
    assert uneven.e1 == pytest.approx(13.0 / 8.0, abs=1e-15)
    assert uneven.e2 == pytest.approx(19.0 / 8.0, abs=1e-15)
    assert uneven.e1 + uneven.e2 == pytest.approx(4.0, abs=1e-15)
    assert uneven.e1**2 - uneven.k**2 == pytest.approx(1.0, abs=1e-12)
    assert uneven.e2**2 - uneven.k**2 == pytest.approx(4.0, abs=1e-12)


def test_kinematics_momenta():
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, p2 = kin.momenta([2.0, -1.0, 0.5])  # unnormalized on purpose
    assert np.allclose(p1.as_array()[1:] + p2.as_array()[1:], 0.0)
    assert np.linalg.norm(p1.as_array()[1:]) == pytest.approx(kin.k, abs=1e-14)
    assert p1.mass2 == pytest.approx(1.0, abs=1e-12)
    assert p2.mass2 == pytest.approx(1.0, abs=1e-12)
    rest = kin.pair_momentum()
    assert np.allclose((p1 + p2).as_array(), rest.as_array())


def test_kinematics_threshold_errors():
    with pytest.raises(BelowThreshold):
        Kinematics(4.0, 1.0, 1.0)  # sqrt(s) equals the mass sum
    with pytest.raises(BelowThreshold):
        Kinematics(3.0, 1.0, 1.0)
    with pytest.raises(MasslessUnsupported):
        Kinematics(9.0, 0.0, 1.0)


def test_rest_frame_hand_values(rng):
    """A few closed forms checked straight against the coupling functions."""
    theta = rng.uniform(0.0, np.pi)
    phi = rng.uniform(0.0, 2 * np.pi)
    spec = FERMION_PAIR
    root = 1.0 / np.sqrt(8.0 * np.pi)
    assert angular_spin_orbit_com(spec, 0, 0, 0, 0, 0.5, -0.5, theta, phi) == pytest.approx(root)
    assert angular_spin_orbit_com(spec, 0, 0, 0, 0, -0.5, 0.5, theta, phi) == pytest.approx(-root)
    assert angular_spin_orbit_com(spec, 1, 0, 1, 1, 0.5, 0.5, theta, phi) == pytest.approx(
        -1.0 / (2.0 * np.sqrt(np.pi))
    )
    assert angular_helicity_com(spec, 0, 0.5, 0.5, 0, theta, phi) == pytest.approx(
        np.sqrt(1.0 / (4.0 * np.pi))
    )
    assert angular_helicity_com(spec, 1, 0.5, -0.5, 1, theta, phi) == pytest.approx(
        np.sqrt(3.0 / (4.0 * np.pi)) * (1.0 + np.cos(theta)) / 2.0
    )


@pytest.mark.parametrize(
    "scheme, j, count",
    [("spin-orbit", 0, 8), ("spin-orbit", 1, 48), ("helicity", 0, 2), ("helicity", 1, 12)],
)
def test_reference_cells_match_tables(scheme, j, count, rng):
    """Every frozen closed form agrees with the live amplitude."""
    cells = reference_cells(scheme, j)
    assert len(cells) == count
    table_fn = spin_orbit_com_table if scheme == "spin-orbit" else helicity_com_table
    angles = [(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(10)]
    for cell in cells:
        a = component_index(FERMION_PAIR.j1, cell.pair[0])
        b = component_index(FERMION_PAIR.j2, cell.pair[1])
        for theta, phi in angles:
            got = table_fn(FERMION_PAIR, cell.j, cell.channel, cell.component, theta, phi)
            assert abs(got[a, b] - complex(cell.value(theta, phi))) < 1e-12


@pytest.mark.parametrize("scheme, j", [("spin-orbit", 0), ("spin-orbit", 1), ("helicity", 1)])
def test_reference_cells_emission_order(scheme, j):
    """Cells are stored channel by channel, components descending, pairs row-major."""
    cells = reference_cells(scheme, j)
    expected = []
    for channel in coupling_channels(FERMION_PAIR, j, scheme):
        for chi in components(HalfInt.of(j)):
            if scheme == "spin-orbit":
                for c1 in components(FERMION_PAIR.j1):
                    for c2 in components(FERMION_PAIR.j2):
                        expected.append((channel, chi, (c1, c2)))
            else:
                expected.append((channel, chi, (channel.lam1, channel.lam2)))
    assert [(c.channel, c.component, c.pair) for c in cells] == expected


def test_variant_cells_deviate_but_library_matches_main_form():
    """The circulating variant forms differ measurably; the code follows the main ones."""
    cells = variant_cells()
    assert len(cells) == 11
    theta, phi = 0.4, 0.9  # keeps every variant form real and finite
    for cell in cells:
        main = complex(cell.value(theta, phi))
        variant = complex(cell.variant_value(theta, phi))
        assert abs(main - variant) > 1e-3
        assert cell.note
        table_fn = spin_orbit_com_table if cell.scheme == "spin-orbit" else helicity_com_table
        got = table_fn(FERMION_PAIR, cell.j, cell.channel, cell.component, theta, phi)
        a = component_index(FERMION_PAIR.j1, cell.pair[0])
        b = component_index(FERMION_PAIR.j2, cell.pair[1])
        assert abs(got[a, b] - main) < 1e-12
        assert abs(got[a, b] - variant) > 1e-3


def test_reference_cells_validation():
    with pytest.raises(ValueError):
        reference_cells("dirac", 0)
    with pytest.raises(ValueError, match="available"):
        reference_cells("spin-orbit", 2)


def test_amplitude_argument_validation():
    with pytest.raises(ValueError):
        angular_spin_orbit_com(FERMION_PAIR, 1, 0, 1, 0.5, 0.5, 0.5, 0.1, 0.2)
    with pytest.raises(ValueError):
        angular_spin_orbit_com(FERMION_PAIR, 1, 0, 1, 2, 0.5, 0.5, 0.1, 0.2)
    with pytest.raises(InvalidChannel):
        spin_orbit_com_table(FERMION_PAIR, 1, SpinOrbitChannel(0, 0), 0, 0.1, 0.2)
    with pytest.raises(InvalidChannel):
        helicity_com_scalar(FERMION_PAIR, 1, HelicityChannel(1.5, 0.5), 1, 0.1, 0.2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rest_frame_amplitudes_reject_non_finite_angles(bad):
    for theta, phi in ((bad, 0.2), (0.1, bad), (np.array([0.1, bad]), 0.2)):
        with pytest.raises(ValueError, match="finite"):
            spin_orbit_com_table(FERMION_PAIR, 1, SpinOrbitChannel(1, 1), 0, theta, phi)
        for table_fn in (helicity_com_scalar, helicity_com_table):
            with pytest.raises(ValueError, match="finite"):
                table_fn(FERMION_PAIR, 1, HelicityChannel(0.5, 0.5), 0, theta, phi)


@pytest.mark.parametrize("angles", ["scalar", "grid"])
def test_helicity_scalar_is_the_wigner_d_entry(angles):
    """helicity_com_scalar reads d^j_{chi mu} alone; it must equal, bit for
    bit, the entry of the whole wigner_d_small matrix it replaces, for
    every j <= 6, chi and mu."""
    if angles == "scalar":
        theta, phi = np.asarray(1.1), np.asarray(2.2)
    else:
        grid = build_grid(16, 33)
        theta, phi = grid.theta, grid.phi
    shape = np.broadcast(theta, phi).shape
    # lam2 fixed, so lam1 = mu + lam2 runs over every mu with |mu| <= j
    for spec, lam2 in (
        (TwoParticleSpec(1.0, 1.0, 6, 0), HalfInt(0)),
        (TwoParticleSpec(1.0, 1.0, 6, 0.5), HalfInt(1)),
    ):
        start = (spec.j1.twice + spec.j2.twice) % 2
        for j in (HalfInt(t) for t in range(start, 13, 2)):
            d = wigner_d_small(j, theta)
            norm = np.sqrt((j.twice + 1.0) / (4.0 * np.pi))
            for chi in components(j):
                for mu in components(j):
                    got = helicity_com_scalar(
                        spec, j, HelicityChannel(mu + lam2, lam2), chi, theta, phi
                    )
                    entry = d[..., component_index(j, chi), component_index(j, mu)]
                    want = (
                        norm * np.exp(-1j * float(chi) * phi) * entry
                        * np.exp(1j * float(mu) * phi) + np.zeros(shape)
                    )
                    np.testing.assert_array_equal(got, want)


def test_helicity_scalar_keeps_the_spin_limit():
    with pytest.raises(ValueError, match="supported maximum"):
        helicity_com_scalar(FERMION_PAIR, 11, HelicityChannel(0.5, 0.5), 0, 0.1, 0.2)
    # a component of the wrong parity for j is rejected, not evaluated
    spec = TwoParticleSpec(1.0, 1.0, 0.5, 1)
    with pytest.raises(ValueError, match="invalid"):
        helicity_com_scalar(spec, 1, HelicityChannel(0.5, 1), 0, 0.1, 0.2)


def test_table_broadcasting_and_slots(rng):
    theta = np.linspace(0.2, 2.9, 5)
    table = spin_orbit_com_table(FERMION_PAIR, 1, SpinOrbitChannel(1, 1), 0, theta, 0.7)
    assert table.shape == (5, 2, 2)
    single = angular_spin_orbit_com(FERMION_PAIR, 1, 1, 1, 0, 0.5, -0.5, theta, 0.7)
    assert single.shape == (5,)
    assert np.allclose(single, table[:, 0, 1])
    hel = helicity_com_table(FERMION_PAIR, 1, HelicityChannel(0.5, -0.5), 1, theta, 0.7)
    assert hel.shape == (5, 2, 2)
    # only the channel's own helicity slot is populated
    assert np.all(hel[:, 0, 0] == 0.0) and np.all(hel[:, 1, :] == 0.0)
    scalar = helicity_com_scalar(FERMION_PAIR, 1, HelicityChannel(0.5, -0.5), 1, theta, 0.7)
    assert np.allclose(hel[:, 0, 1], scalar)


@pytest.mark.parametrize("scheme", ["spin-orbit", "helicity"])
def test_general_frame_reduces_to_rest_frame(scheme, rng):
    """With the pair at rest the general-frame amplitudes are the rest-frame ones."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    for _ in range(6):
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        p1, p2 = kin.momenta(n)
        for channel in coupling_channels(FERMION_PAIR, 1, scheme):
            for chi in (-1, 0, 1):
                if scheme == "spin-orbit":
                    general = spin_orbit_general_table(FERMION_PAIR, 1, channel, chi, p1, p2)
                    com = spin_orbit_com_table(FERMION_PAIR, 1, channel, chi, theta, phi)
                else:
                    general = helicity_general_table(FERMION_PAIR, 1, channel, chi, p1, p2)
                    com = helicity_com_table(FERMION_PAIR, 1, channel, chi, theta, phi)
                assert np.abs(general - com).max() < 1e-12


def _general_labels():
    """(scheme, j, channel, chi) of every general-frame table for j <= 2."""
    return [
        (scheme, j, channel, chi)
        for scheme in ("spin-orbit", "helicity")
        for j in range(3)
        for channel in coupling_channels(FERMION_PAIR, j, scheme)
        for chi in components(j)
    ]


def _general_table(scheme, j, channel, chi, p1, p2):
    table_fn = spin_orbit_general_table if scheme == "spin-orbit" else helicity_general_table
    return table_fn(FERMION_PAIR, j, channel, chi, p1, p2)


def _uncached_general_table(scheme, j, channel, chi, p1, p2):
    """The general-frame table from its definition, with every frame
    quantity computed afresh for this one table."""
    convention, com_fn = {
        "spin-orbit": ("canonical", spin_orbit_com_table),
        "helicity": ("helicity", helicity_com_table),
    }[scheme]
    p = p1 + p2
    theta, phi = polar_angles(relative_direction(p1, p2, convention))
    a_com = com_fn(FERMION_PAIR, j, channel, chi, theta, phi)
    d1 = rep_matrix(FERMION_PAIR.j1, inverse_com_wigner(p, p1, convention).matrix)
    d2 = rep_matrix(FERMION_PAIR.j2, inverse_com_wigner(p, p2, convention).matrix)
    return np.einsum("ac,bd,cd->ab", d1, d2, a_com)


def test_general_tables_share_a_frame_bit_for_bit(rng):
    """Every table equals its uncached definition bit for bit, whether its
    frame is computed afresh, taken from the cache, or computed again after
    more frames than the cache holds went through it."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    frames = [kin.momenta([0.0, 0.0, 1.0])]
    for _ in range(3):
        p1, p2 = kin.momenta(rng.normal(size=3))
        alpha = random_sl2c(rng)
        frames.append((apply_lorentz(alpha, p1), apply_lorentz(alpha, p2)))
    labels = _general_labels()
    assert len(labels) == 68
    want = [[_uncached_general_table(*label, *frame) for label in labels] for frame in frames]
    fresh = []
    for frame in frames:
        for label in labels:
            cgc_module._frame.cache_clear()
            fresh.append(_general_table(*label, *frame))
    warm = [_general_table(*label, *frame) for frame in frames for label in labels]
    maxsize = cgc_module._frame.cache_info().maxsize
    for _ in range(maxsize + 1):
        p1, p2 = kin.momenta(rng.normal(size=3))
        spin_orbit_general_table(FERMION_PAIR, 0, SpinOrbitChannel(0, 0), 0, p1, p2)
    assert cgc_module._frame.cache_info().currsize <= maxsize
    evicted = [_general_table(*label, *frame) for frame in frames for label in labels]
    want = [table for per_frame in want for table in per_frame]
    for tables in (fresh, warm, evicted):
        for got, expected in zip(tables, want, strict=True):
            np.testing.assert_array_equal(got, expected)


def test_frame_cache_tells_signed_zeros_apart():
    """Momenta that differ only in the sign of a zero component are two frames."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    _, p2 = kin.momenta([0.0, 0.0, 1.0])
    k = float(-p2.p[2])
    plus = FourMomentum(kin.e1, [0.0, 0.0, k])
    minus = FourMomentum(kin.e1, [-0.0, 0.0, k])
    channel = SpinOrbitChannel(1, 1)
    cgc_module._frame.cache_clear()
    spin_orbit_general_table(FERMION_PAIR, 1, channel, 0, plus, p2)
    spin_orbit_general_table(FERMION_PAIR, 1, channel, 0, minus, p2)
    info = cgc_module._frame.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    spin_orbit_general_table(FERMION_PAIR, 1, channel, 1, plus, p2)
    assert cgc_module._frame.cache_info().hits == 1


def test_cached_frame_matrices_are_read_only():
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, p2 = kin.momenta([0.3, -0.2, 0.9])
    key = np.concatenate((p1.as_array(), p2.as_array())).tobytes()
    for convention in ("canonical", "helicity"):
        _, _, d1, d2 = cgc_module._frame(FERMION_PAIR, convention, key)
        for d in (d1, d2):
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0, 0] = 0.0


def test_general_frame_off_shell_guard():
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, p2 = kin.momenta([0.0, 0.0, 1.0])
    heavy = FourMomentum.on_shell(2.0, p1.as_array()[1:])
    with pytest.raises(ValueError, match="off shell"):
        spin_orbit_general_table(FERMION_PAIR, 1, SpinOrbitChannel(1, 1), 0, heavy, p2)


def test_off_shell_guard_holds_for_a_cached_frame():
    """Momenta whose frame is cached under one spec are still off shell for
    a heavier spec, on every call: the frame cache is keyed on the spec."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, p2 = kin.momenta([0.3, -0.2, 0.9])
    channel = SpinOrbitChannel(1, 1)
    spin_orbit_general_table(FERMION_PAIR, 1, channel, 0, p1, p2)
    heavy = TwoParticleSpec.fermion_pair(2.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="first momentum is off shell"):
            spin_orbit_general_table(heavy, 1, channel, 0, p1, p2)


def test_general_tables_check_their_pair_once_per_frame(monkeypatch):
    """The pair is checked in _frame, once per frame and boost convention:
    all 68 tables at a fresh frame run the threshold test as often as one
    table of each scheme does."""
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    labels = _general_labels()
    first = [next(lab for lab in labels if lab[0] == scheme) for scheme in cgc_module.SCHEMES]
    check = cgc_module._check_above_threshold
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(cgc_module, "_check_above_threshold", counted)
    counts = []
    for direction, batch in (([0.3, -0.2, 0.9], first), ([-0.5, 0.1, 0.4], labels)):
        p1, p2 = kin.momenta(direction)
        cgc_module._frame.cache_clear()
        calls.clear()
        for label in batch:
            _general_table(*label, p1, p2)
        counts.append(len(calls))
    assert counts == [2, 2]


def test_spin_orbit_boosted_covariance(rng):
    """Boosting both momenta rotates the spin slots and mixes components of j.

    Each constituent slot picks up its own little-group rotation and the
    coupled component mixes through the rotation of the pair's rest
    momentum, exactly as for a single irrep.
    """
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    j = HalfInt(2)
    channel = SpinOrbitChannel(1, 1)
    worst = 0.0
    for _ in range(4):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p1, p2 = kin.momenta(n)
        boost = canonical_boost(random_momentum(rng, 4.0, 1.5))
        q1, q2 = apply_lorentz(boost, p1), apply_lorentz(boost, p2)
        d1 = rep_matrix(FERMION_PAIR.j1, wigner_rotation(boost, p1).matrix)
        d2 = rep_matrix(FERMION_PAIR.j2, wigner_rotation(boost, p2).matrix)
        dj = rep_matrix(j, wigner_rotation(boost, FourMomentum.rest(PAIR_S)).matrix)
        for chi in components(j):
            lhs = spin_orbit_general_table(FERMION_PAIR, j, channel, chi, q1, q2)
            icol = component_index(j, chi)
            rhs = np.zeros_like(lhs)
            for chi_p in components(j):
                table = spin_orbit_general_table(FERMION_PAIR, j, channel, chi_p, p1, p2)
                rhs += dj[component_index(j, chi_p), icol] * np.einsum(
                    "ac,bd,cd->ab", d1, d2, table
                )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10


def test_helicity_tables_break_the_spin_orbit_covariance_law(rng):
    """Regression: helicity labels are frame-tied, not boost-covariant.

    For the canonical scheme the boosted table factorizes through per-slot
    Wigner rotations (previous test). Applying the same factorization to
    helicity tables must fail badly for a generic boost, because helicity
    Wigner rotations depend on each momentum separately.
    """
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    j = HalfInt(2)
    channel = HelicityChannel(0.5, -0.5)
    boost = canonical_boost(FourMomentum.on_shell(4.0, np.array([1.3, -0.4, 0.8])))
    worst = 0.0
    for _ in range(8):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p1, p2 = kin.momenta(n)
        q1, q2 = apply_lorentz(boost, p1), apply_lorentz(boost, p2)
        d1 = rep_matrix(FERMION_PAIR.j1, wigner_rotation(boost, p1, "helicity").matrix)
        d2 = rep_matrix(FERMION_PAIR.j2, wigner_rotation(boost, p2, "helicity").matrix)
        dj = rep_matrix(j, wigner_rotation(boost, FourMomentum.rest(PAIR_S), "helicity").matrix)
        for chi in components(j):
            lhs = helicity_general_table(FERMION_PAIR, j, channel, chi, q1, q2)
            icol = component_index(j, chi)
            rhs = np.zeros_like(lhs)
            for chi_p in components(j):
                table = helicity_general_table(FERMION_PAIR, j, channel, chi_p, p1, p2)
                rhs += dj[component_index(j, chi_p), icol] * np.einsum(
                    "ac,bd,cd->ab", d1, d2, table
                )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst > 0.1


def test_relative_momentum_properties(rng):
    """The relative vector is purely spatial and unit normalized."""
    for _ in range(50):
        p1 = random_momentum(rng, 1.0, 4.0)
        p2 = random_momentum(rng, 4.0, 4.0)
        for convention in ("canonical", "helicity"):
            e = relative_momentum(p1, p2, convention)
            assert abs(e[0]) < 1e-10
            assert abs(np.linalg.norm(e[1:]) - 1.0) < 1e-10
        assert np.abs(relative_momentum(p2, p1) + relative_momentum(p1, p2)).max() < 1e-12


def test_relative_momentum_rest_frame():
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    n = np.array([0.6, 0.0, 0.8])
    p1, p2 = kin.momenta(n)
    assert np.allclose(relative_direction(p1, p2), n, atol=1e-14)
    assert np.allclose(relative_momentum(p1, p2)[0], 0.0, atol=1e-14)


def test_inverse_com_wigner_is_a_rotation(rng):
    rest = FourMomentum.rest(PAIR_S)
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, _ = kin.momenta([0.2, 0.9, -0.4])
    assert np.abs(inverse_com_wigner(rest, p1).matrix - np.eye(2)).max() < 1e-12
    for convention in ("canonical", "helicity"):
        boost = canonical_boost(random_momentum(rng, 4.0, 2.0))
        q1 = apply_lorentz(boost, p1)
        pair = apply_lorentz(boost, kin.pair_momentum())
        w = inverse_com_wigner(pair, q1, convention).matrix
        assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(w) - 1.0) < 1e-12


def test_helicity_to_wigner_matrix(rng):
    pz = FourMomentum.on_shell(1.0, np.array([0.0, 0.0, 2.5]))
    assert np.abs(helicity_to_wigner(1, pz) - np.eye(3)).max() < 1e-14
    for _ in range(10):
        p = random_momentum(rng, 1.0, 3.0)
        m = helicity_to_wigner(0.5, p)
        assert np.abs(m - direction_rotation(p).inverse().matrix).max() < 1e-14
        big = helicity_to_wigner(2, p)
        assert np.abs(big @ big.conj().T - np.eye(5)).max() < 1e-12


def test_angular_general_scalar_slots(rng):
    kin = Kinematics.for_spec(FERMION_PAIR, PAIR_S)
    p1, p2 = kin.momenta(rng.normal(size=3))
    boost = canonical_boost(random_momentum(rng, 4.0, 1.0))
    q1, q2 = apply_lorentz(boost, p1), apply_lorentz(boost, p2)
    table = spin_orbit_general_table(FERMION_PAIR, 1, SpinOrbitChannel(1, 1), 0, q1, q2)
    got = angular_spin_orbit_general(FERMION_PAIR, 1, 1, 1, 0, 0.5, -0.5, q1, q2)
    assert got == pytest.approx(table[0, 1])
    htable = helicity_general_table(FERMION_PAIR, 1, HelicityChannel(0.5, 0.5), 1, q1, q2)
    hgot = angular_helicity_general(FERMION_PAIR, 1, 0.5, 0.5, 1, -0.5, 0.5, q1, q2)
    assert hgot == pytest.approx(htable[1, 0])


def test_helicity_com_pair_frame_covariance(rng):
    """Coupled helicity tables rotate by D^j(u) up to a shared pair-frame z-phase.

    The phase comes from the minimal rotation Rz(phi) Ry(theta) Rz(-phi) of the
    relative direction, not from the per-particle Rz(phi) Ry(theta) frames, so
    this law is a property of the closed forms alone.
    """

    def rho_min(theta, phi):
        rz = lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
        ry = np.array(
            [
                [np.cos(theta / 2), -np.sin(theta / 2)],
                [np.sin(theta / 2), np.cos(theta / 2)],
            ]
        )
        return rz(phi) @ ry @ rz(-phi)

    for _ in range(6):
        u = random_su2(rng)
        rot3 = spinor_to_lorentz(u)[1:, 1:]
        theta, phi = rng.uniform(0.2, 2.9), rng.uniform(0.0, 2 * np.pi)
        direction = np.array(
            [
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]
        )
        t_img, p_img = polar_angles((rot3 @ direction)[None, :])
        t_img, p_img = float(t_img[0]), float(p_img[0])
        g = np.linalg.inv(rho_min(t_img, p_img)) @ u @ rho_min(theta, phi)
        assert max(abs(g[0, 1]), abs(g[1, 0])) < 1e-12
        w = g[0, 0] / abs(g[0, 0])
        for j in (HalfInt(0), HalfInt(2)):
            for channel in (HelicityChannel(0.5, 0.5), HelicityChannel(0.5, -0.5)):
                mu = HalfInt(channel.lam1.twice - channel.lam2.twice)
                if abs(mu.twice) > j.twice:
                    continue
                comps = components(j)
                img = np.array(
                    [
                        angular_helicity_com(
                            FERMION_PAIR, j, channel.lam1, channel.lam2, c, t_img, p_img
                        )
                        for c in comps
                    ]
                )
                pre = np.array(
                    [
                        angular_helicity_com(
                            FERMION_PAIR, j, channel.lam1, channel.lam2, c, theta, phi
                        )
                        for c in comps
                    ]
                )
                law = w ** (-mu.twice) * (rep_matrix(j, u) @ pre)
                assert np.abs(img - law).max() < 1e-12


def _random_boosted_pair(rng, near_threshold):
    """A seeded spec of unequal masses and spins up to 2, a pair of it at a
    random rest-frame direction, and a canonical boost of rapidity up to 4.

    The pair mass is sqrt(s1) + sqrt(s2) times 1 + delta, delta in
    [1e-9, 1e-6] near threshold and in [0.05, 1] otherwise. Returns the
    spec, the kinematics, the pair, the boost and its rapidity.
    """
    m1, m2 = rng.uniform(0.5, 2.0, size=2)
    spec = TwoParticleSpec(m1 * m1, m2 * m2, HalfInt(int(rng.integers(5))), HalfInt(int(rng.integers(5))))
    delta = 10 ** rng.uniform(-9, -6) if near_threshold else rng.uniform(0.05, 1.0)
    kin = Kinematics.for_spec(spec, ((m1 + m2) * (1 + delta)) ** 2)
    p1, p2 = kin.momenta(rng.normal(size=3))
    rapidity = rng.uniform(0.0, 4.0)
    n = rng.normal(size=3)
    boost = canonical_boost(FourMomentum.on_shell(1.0, math.sinh(rapidity) * n / np.linalg.norm(n)))
    return spec, kin, (p1, p2), boost, rapidity


def test_boosted_covariance_over_random_specs():
    """A(Lp1, Lp2; chi) = sum_chi' D^j(W)_{chi' chi} D^{j1}(W1) (x) D^{j2}(W2) A(p1, p2; chi')
    for spin-orbit general tables, over 40 seeded specs: unequal masses,
    constituent spins up to 2, every j <= 3, boosts of rapidity up to 4,
    and every other pair within 1e-6 (relative) of threshold.

    The residual is bounded by eps cosh^2(rapidity) sqrt(s)/k: the table
    reads its angles from the boosted pair, whose rest-frame direction
    float rounding blurs by that much. Measured over these draws: at most
    2.1 times the bound away from threshold (worst 1.6e-13) and 0.56 times
    near it (worst 3.5e-10); the test allows 30. Rapidity stops at 4: past
    about 5 a constituent's Wigner rotation fails SpinorTransform's
    unimodularity check (README, on the Lorentz layer's batches).
    """
    rng = np.random.default_rng(4112)
    worst_ratio = 0.0
    for case in range(40):
        spec, kin, (p1, p2), boost, rapidity = _random_boosted_pair(rng, case % 2 == 1)
        rest = FourMomentum.rest(kin.s)
        frame = FourMomentum.from_array(np.array([p1.as_array(), p2.as_array(), rest.as_array()]))
        w = wigner_rotation(boost, frame).matrix
        q1, q2 = apply_lorentz(boost, frame[:2])
        d1, d2 = rep_matrix(spec.j1, w[0]), rep_matrix(spec.j2, w[1])
        bound = np.finfo(float).eps * math.cosh(rapidity) ** 2 * math.sqrt(kin.s) / kin.k
        for twice in range((spec.j1.twice + spec.j2.twice) % 2, 7, 2):
            j = HalfInt(twice)
            dj = rep_matrix(j, w[2])
            for channel in coupling_channels(spec, j, "spin-orbit"):
                rest_tables = [spin_orbit_general_table(spec, j, channel, c, p1, p2) for c in components(j)]
                for b, chi in enumerate(components(j)):
                    lhs = spin_orbit_general_table(spec, j, channel, chi, q1, q2)
                    rhs = sum(
                        dj[a, b] * np.einsum("ac,bd,cd->ab", d1, d2, table)
                        for a, table in enumerate(rest_tables)
                    )
                    worst_ratio = max(worst_ratio, float(np.abs(lhs - rhs).max()) / bound)
    assert worst_ratio <= 30.0


def test_relative_momentum_normalization_near_threshold():
    """|e^0| and ||e_vec| - 1| of relative_momentum for 200 seeded pairs
    within 1e-6 (relative) of threshold, as given and boosted up to
    rapidity 4.

    The triangle is read from s = (p1 + p2)^2, which rounds to about
    eps s cosh^2(rapidity); near threshold the triangle is proportional to
    s - s_th, so the normalization loses eps cosh^2 s / (s - s_th).
    Measured over these draws: worst 4.6e-8 in the rest frame and 2.0e-5
    boosted (at delta near 1e-9), at most 0.72 and 1.1 times that bound;
    the test allows 10.
    """
    rng = np.random.default_rng(4113)
    eps = np.finfo(float).eps
    worst_ratio = 0.0
    for _ in range(200):
        spec, kin, (p1, p2), boost, rapidity = _random_boosted_pair(rng, True)
        threshold = (math.sqrt(spec.s1) + math.sqrt(spec.s2)) ** 2
        for q1, q2, eta in ((p1, p2, 0.0), (apply_lorentz(boost, p1), apply_lorentz(boost, p2), rapidity)):
            e = relative_momentum(q1, q2)
            error = max(abs(e[0]), abs(math.sqrt(e[1:] @ e[1:]) - 1.0))
            bound = eps * math.cosh(eta) ** 2 * kin.s / (kin.s - threshold)
            worst_ratio = max(worst_ratio, error / bound)
    assert worst_ratio <= 10.0
