"""Two-particle channel enumeration and coupling amplitudes.

A pair of massive irreps (mass squared s_i, spin j_i) is coupled to a
total spin j either through an orbital/spin channel (l, s) or through a
helicity channel (lambda1, lambda2). The center-of-momentum amplitudes
here are the matrix elements projecting a two-particle plane-wave pair
at relative direction (theta, phi) onto the coupled state; general-frame
amplitudes follow from them by Wigner rotations of each spin slot.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BelowThreshold, InvalidChannel, MasslessUnsupported
from .halfint import HalfInt, compatible, component_index, components, hrange, triangle_rule
from .lorentz import (
    FourMomentum,
    SpinorTransform,
    apply_lorentz,
    polar_angles,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)
from .su2 import (_check_j, _d_entry, _finite_angles, _harmonic_rows, _wigner_D, rep_matrix,
                  su2_cgc)

SCHEMES = ("spin-orbit", "helicity")

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return scheme


def _minus_one_to(chi: HalfInt) -> complex:
    """(-1)**chi on the principal branch, exact for half-integers."""
    return _I_POWERS[chi.twice % 4]


@dataclass(frozen=True)
class TwoParticleSpec:
    """Masses (squared) and spins of the two irreps being coupled."""

    s1: float
    s2: float
    j1: HalfInt
    j2: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "s1", float(self.s1))
        object.__setattr__(self, "s2", float(self.s2))
        object.__setattr__(self, "j1", HalfInt.of(self.j1))
        object.__setattr__(self, "j2", HalfInt.of(self.j2))
        if not (math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise ValueError(f"masses squared must be finite, got s1 = {self.s1}, s2 = {self.s2}")
        if self.s1 <= 0.0 or self.s2 <= 0.0:
            raise MasslessUnsupported("both constituents need positive mass squared")
        if self.j1 < HalfInt(0) or self.j2 < HalfInt(0):
            raise ValueError("spins must be nonnegative")

    @classmethod
    def fermion_pair(cls, s1: float, s2: float | None = None) -> "TwoParticleSpec":
        """Two spin-1/2 constituents, equal masses unless s2 is given."""
        return cls(s1, s1 if s2 is None else s2, HalfInt(1), HalfInt(1))

    @property
    def spin_shape(self) -> tuple[int, int]:
        return (self.j1.twice + 1, self.j2.twice + 1)


@dataclass(frozen=True)
class SpinOrbitChannel:
    """Orbital angular momentum l coupled with total constituent spin s; eta = (l, s)."""

    l: HalfInt
    s: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "l", HalfInt.of(self.l))
        object.__setattr__(self, "s", HalfInt.of(self.s))
        if not self.l.is_integer or self.l < HalfInt(0):
            raise InvalidChannel(f"orbital label must be a nonnegative integer, got {self.l}")
        if self.s < HalfInt(0):
            raise InvalidChannel(f"total spin must be nonnegative, got {self.s}")

    @property
    def eta(self) -> tuple[HalfInt, HalfInt]:
        return (self.l, self.s)

    def label(self) -> str:
        return f"l={self.l},s={self.s}"


@dataclass(frozen=True)
class HelicityChannel:
    """Rest-frame helicity labels of the two constituents; eta = (lam1, lam2)."""

    lam1: HalfInt
    lam2: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "lam1", HalfInt.of(self.lam1))
        object.__setattr__(self, "lam2", HalfInt.of(self.lam2))

    @property
    def mu(self) -> HalfInt:
        return self.lam1 - self.lam2

    @property
    def eta(self) -> tuple[HalfInt, HalfInt]:
        return (self.lam1, self.lam2)

    def label(self) -> str:
        return f"lam1={self.lam1},lam2={self.lam2}"


def enumerate_channels(spec: TwoParticleSpec, j, scheme: str = "spin-orbit") -> list:
    """All channels of the scheme for total spin j.

    Orbital/spin channels are ordered by s then l, both ascending; helicity
    channels run over the full component grid, lam1 then lam2, both
    descending. Helicity channels with |lam1 - lam2| > j are listed too;
    their coupling amplitudes vanish identically.
    """
    j = HalfInt.of(j)
    _check_scheme(scheme)
    if scheme == "helicity":
        return [
            HelicityChannel(l1, l2)
            for l1 in components(spec.j1)
            for l2 in components(spec.j2)
        ]
    out = []
    for s in hrange(abs(spec.j1 - spec.j2), spec.j1 + spec.j2):
        lo, hi = abs(j - s), j + s
        if not lo.is_integer:
            continue
        out.extend(SpinOrbitChannel(l, s) for l in hrange(lo, hi))
    return out


def coupling_channels(spec: TwoParticleSpec, j, scheme: str = "spin-orbit") -> list:
    """Channels whose coupling amplitude is not identically zero."""
    j = HalfInt.of(j)
    chans = enumerate_channels(spec, j, scheme)
    if scheme == "helicity":
        return [c for c in chans if abs(c.mu) <= j]
    return chans


def _exact_triangle(s, s1, s2) -> tuple[int, int]:
    """(t, den): the triangle of the float inputs is exactly t / den**2."""
    try:
        (a, da), (b, db), (c, dc) = (float(v).as_integer_ratio() for v in (s, s1, s2))
    except (OverflowError, ValueError):
        raise ValueError(f"triangle needs finite arguments, got {(s, s1, s2)}") from None
    den = max(da, db, dc)
    x, y, z = a * (den // da), b * (den // db), c * (den // dc)
    return (x - y - z) ** 2 - 4 * y * z, den


def triangle(s, s1, s2) -> float:
    """Symmetric triangle function s^2 + s1^2 + s2^2 - 2(s s1 + s s2 + s1 s2).

    Evaluated exactly, as (x - y - z)^2 - 4yz in integers over the inputs'
    common power-of-two denominator, and rounded once: correctly rounded,
    so permutation invariant, also just above threshold, where the expanded
    terms cancel. Non-finite arguments raise ValueError, and a value beyond
    the float range raises OverflowError.
    """
    t, den = _exact_triangle(s, s1, s2)
    return t / (den * den)


def _check_above_threshold(s, s1, s2) -> tuple[float, int]:
    """The triangle as (x, k), equal to x * 16**k, after an exact test of
    sqrt(s) > sqrt(s1) + sqrt(s2), which holds if and only if s > max(s1, s2)
    and the exact triangle is positive. k is 0 and x is triangle(s, s1, s2)
    where that is a normal float; a triangle that overflows, is subnormal
    or rounds to zero gives x in [1, 16) instead, so no bits are lost."""
    if s1 <= 0.0 or s2 <= 0.0:
        raise MasslessUnsupported("constituent mass squared must be positive")
    t, den = _exact_triangle(s, s1, s2)
    if not (s > max(s1, s2) and t > 0):
        raise BelowThreshold(
            f"pair mass sqrt({s}) does not exceed threshold sqrt({s1}) + sqrt({s2})"
        )
    with contextlib.suppress(OverflowError):
        if (delta := t / (den * den)) >= sys.float_info.min:
            return delta, 0
    k = (t.bit_length() - 2 * den.bit_length() + 1) // 4
    return float(Fraction(t, den * den) / Fraction(16) ** k), k


def com_momentum(s, s1, s2) -> float:
    """Magnitude of either constituent momentum in the pair rest frame.

    sqrt(triangle / 4s); a triangle out of the float range and 4s are both
    divided by the same power of two, which is exact.
    """
    delta, k = _check_above_threshold(s, s1, s2)
    return float(np.sqrt(delta / math.ldexp(s, 2 - 4 * k)))


def com_normalization(s, s1, s2) -> float:
    """Normalization prefactor (sqrt(2)/2) * triangle(s, s1, s2)^(1/4)."""
    delta, k = _check_above_threshold(s, s1, s2)
    return math.ldexp(float(np.sqrt(0.5) * delta**0.25), k)


@dataclass(frozen=True)
class Kinematics:
    """Two-body kinematics at fixed pair mass squared s."""

    s: float
    s1: float
    s2: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "s1", float(self.s1))
        object.__setattr__(self, "s2", float(self.s2))
        _check_above_threshold(self.s, self.s1, self.s2)

    @classmethod
    def for_spec(cls, spec: TwoParticleSpec, s: float) -> "Kinematics":
        return cls(s, spec.s1, spec.s2)

    @property
    def delta(self) -> float:
        return triangle(self.s, self.s1, self.s2)

    @property
    def k(self) -> float:
        return com_momentum(self.s, self.s1, self.s2)

    @property
    def e1(self) -> float:
        return (self.s + self.s1 - self.s2) / (2.0 * np.sqrt(self.s))

    @property
    def e2(self) -> float:
        return (self.s + self.s2 - self.s1) / (2.0 * np.sqrt(self.s))

    def momenta(self, direction) -> tuple[FourMomentum, FourMomentum]:
        """Back-to-back constituent momenta along a rest-frame direction,
        whose norm must be finite and nonzero (ValueError). Far above both
        masses E^2 - k^2 cancels in floats: at s = 1e200 unit masses come
        out massless, and the general-frame tables raise MasslessUnsupported."""
        n = np.asarray(direction, dtype=float)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(n)
        if not 0.0 < norm < math.inf:
            # the squared norm over- or underflowed, or the direction is invalid
            scale = np.max(np.abs(n))
            if not 0.0 < scale < math.inf:
                raise ValueError(f"direction {direction!r} must have a finite, nonzero norm")
            n = n / scale
            norm = np.linalg.norm(n)
        n = n / norm
        return (
            FourMomentum(self.e1, self.k * n),
            FourMomentum(self.e2, -self.k * n),
        )

    def pair_momentum(self) -> FourMomentum:
        return FourMomentum.rest(self.s)


def discrete_symmetry_labels(l, s) -> tuple[int, int]:
    """Parity and charge-conjugation signs of a fermion-antifermion pair.

    For two spin-1/2 constituents in the orbital/spin channel (l, s) the
    pair is a parity eigenstate with sign (-1)**(l+1) and, for a neutral
    particle-antiparticle pair, a charge-conjugation eigenstate with sign
    (-1)**(l+s).
    """
    l, s = HalfInt.of(l), HalfInt.of(s)
    if not l.is_integer or l < HalfInt(0):
        raise InvalidChannel(f"orbital label must be a nonnegative integer, got {l}")
    if s not in (HalfInt(0), HalfInt(2)):
        raise InvalidChannel(f"two spin-1/2 constituents couple to s = 0 or 1, got {s}")
    li, si = int(l), int(s)
    return (-1) ** (li + 1), (-1) ** (li + si)


def _check_chi(j, chi) -> tuple[HalfInt, HalfInt]:
    j, chi = HalfInt.of(j), HalfInt.of(chi)
    if not compatible(j, chi):
        raise ValueError(f"component {chi} is not valid for spin {j}")
    return j, chi


def spin_orbit_com_table(
    spec: TwoParticleSpec, j, channel: SpinOrbitChannel, chi, theta, phi
) -> np.ndarray:
    """Rest-frame coupling amplitudes of an orbital/spin channel.

    Returns the array A[chi1, chi2] over descending constituent spin
    components, broadcast over theta/phi with the spin axes trailing.
    The amplitude is

        <j1 chi1 j2 chi2 | s s3> <l l3 s s3 | j chi> (-1)**chi Y_{l l3}

    with s3 = chi1 + chi2 and l3 = chi - s3. Angles that fail
    :func:`_finite_angles` raise ValueError.
    """
    theta, phi = _finite_angles(theta=theta, phi=phi)
    rows = _harmonic_rows(int(channel.l), theta, phi)
    return _spin_orbit_amplitudes(spec, j, channel, chi, rows)


def _spin_orbit_amplitudes(spec, j, channel, chi, rows) -> np.ndarray:
    """Fill the table of :func:`spin_orbit_com_table` from its spin cells.

    rows are the channel's harmonics Y_{l l3} at the angles, l3 = l ... -l
    (:func:`poincare_cgc.su2._harmonic_rows`); each slot is its cell
    weight times one row.
    """
    cells = _spin_orbit_cells(spec.j1, spec.j2, j, channel.l, channel.s, chi)
    out = np.zeros(rows.shape[1:] + spec.spin_shape, dtype=complex)
    for a, b, row, weight in cells:
        out[..., a, b] = weight * rows[row]
    return out


@functools.cache
def _spin_orbit_cells(j1, j2, j, l, s, chi) -> tuple:
    """Nonzero slots (a, b, l - l3, CG * CG * (-1)**chi) of an orbital/spin table.

    l - l3 is the row of Y_{l l3} in the channel's harmonic rows. Memoised
    on the spin labels alone, which _MAX_J bounds; invalid labels raise
    (and nothing is cached for them).
    """
    j, chi = _check_chi(j, chi)
    if not (triangle_rule(j1, j2, s) and triangle_rule(l, s, j)):
        raise InvalidChannel(f"channel (l={l},s={s}) does not couple to spin {j}")
    phase = _minus_one_to(chi)
    cells = []
    for a, chi1 in enumerate(components(j1)):
        for b, chi2 in enumerate(components(j2)):
            s3 = chi1 + chi2
            l3 = chi - s3
            if abs(s3) > s or abs(l3) > l:
                continue
            weight = su2_cgc(s, j1, j2, s3, chi1, chi2) * su2_cgc(j, l, s, chi, l3, s3)
            if weight == 0.0:
                continue
            cells.append((a, b, int(l - l3), weight * phase))
    return tuple(cells)


def angular_spin_orbit_com(spec: TwoParticleSpec, j, l, s, chi, chi1, chi2, theta, phi):
    """One rest-frame orbital/spin coupling amplitude.

    The (chi1, chi2) slot of :func:`spin_orbit_com_table` for the channel
    (l, s); scalar angles give a complex scalar, array angles broadcast.
    """
    table = spin_orbit_com_table(spec, j, SpinOrbitChannel(l, s), chi, theta, phi)
    a = component_index(spec.j1, chi1)
    b = component_index(spec.j2, chi2)
    return table[..., a, b]


def helicity_com_scalar(
    spec: TwoParticleSpec, j, channel: HelicityChannel, chi, theta, phi
) -> np.ndarray:
    """Scalar rest-frame amplitude of a helicity channel.

    sqrt((2j+1)/4pi) exp(-i chi phi) d^j_{chi, mu}(theta) exp(+i mu phi)
    with mu = lam1 - lam2; identically zero when |mu| > j. Angles that
    fail :func:`_finite_angles` raise ValueError.
    """
    theta, phi = _finite_angles(theta=theta, phi=phi)
    j, chi = _check_chi(j, chi)
    if abs(channel.lam1) > spec.j1 or abs(channel.lam2) > spec.j2:
        raise InvalidChannel(f"channel ({channel.label()}) exceeds the constituent spins")
    shape = np.broadcast(theta, phi).shape
    mu = channel.mu
    if abs(mu) > j:
        return np.zeros(shape, dtype=complex)
    if not compatible(j, mu):
        raise ValueError(f"component {mu} invalid for j={j}")
    # d^j_{chi mu} alone, not the whole (2j+1)^2 matrix
    d = _d_entry(_check_j(j).twice, chi.twice, mu.twice, theta)
    norm = np.sqrt((j.twice + 1.0) / (4.0 * np.pi))
    return norm * np.exp(-1j * float(chi) * phi) * d * np.exp(1j * float(mu) * phi) + np.zeros(shape)


def helicity_com_table(
    spec: TwoParticleSpec, j, channel: HelicityChannel, chi, theta, phi
) -> np.ndarray:
    """Rest-frame helicity amplitudes as an array over helicity slots.

    Same layout as :func:`spin_orbit_com_table` but the trailing axes
    index the constituent helicities (descending); only the slot at the
    channel's (lam1, lam2) is populated.
    """
    scalar = helicity_com_scalar(spec, j, channel, chi, theta, phi)
    out = np.zeros(scalar.shape + spec.spin_shape, dtype=complex)
    a = component_index(spec.j1, channel.lam1)
    b = component_index(spec.j2, channel.lam2)
    out[..., a, b] = scalar
    return out


def angular_helicity_com(spec: TwoParticleSpec, j, lam1, lam2, lam, theta1, phi1):
    """One rest-frame helicity coupling amplitude.

    Amplitude of the (lam1, lam2) channel at coupled component lam, taken
    at the polar angles of the first constituent's momentum.
    """
    return helicity_com_scalar(spec, j, HelicityChannel(lam1, lam2), lam, theta1, phi1)


def relative_momentum(p1: FourMomentum, p2: FourMomentum, convention: str = "canonical") -> np.ndarray:
    """Unit spacelike relative four-vectors seen from the pair rest frame.

    The difference p1 - p2, with its component along the pair momentum
    projected out, is carried to the rest frame by the inverse of the
    pair's standard boost (of the given convention) and normalized with
    sqrt(s / triangle), both scaled by 16**k as in _check_above_threshold.
    The time component vanishes and the spatial part is a unit vector.
    p1 and p2 may be batches (leading axes broadcast, as in lorentz); each
    pair is tested against its threshold, the first failing one raising.
    """
    s1, s2 = p1.mass2, p2.mass2
    p = p1 + p2
    s = p.mass2
    members = zip(*(_check_above_threshold(*pair) for pair in np.broadcast(s, s1, s2)))
    delta, k = (np.array(v).reshape(np.shape(s)) for v in members)
    q = p1.as_array() - p2.as_array() - np.asarray((s1 - s2) / s)[..., None] * p.as_array()
    binv = standard_boost(p, None, convention).inverse()
    scale = np.asarray(np.sqrt(np.ldexp(s, -4 * k) / delta))[..., None]
    return scale * (spinor_to_lorentz(binv.matrix) @ q[..., None])[..., 0]


def relative_direction(p1: FourMomentum, p2: FourMomentum, convention: str = "canonical") -> np.ndarray:
    """Spatial unit vectors of :func:`relative_momentum`."""
    return relative_momentum(p1, p2, convention)[..., 1:]


def inverse_com_wigner(
    p: FourMomentum, p_i: FourMomentum, convention: str = "canonical"
) -> SpinorTransform:
    """Spin rotations taking rest-frame constituent labels to the frame of p.

    For the pair momentum p and a constituent momentum p_i (both in the
    same frame), this is the little-group element W(b(p), q_i) where q_i
    is p_i carried to the pair rest frame, i.e. the rotation a spin slot
    picks up when the coupled state is boosted out of the rest frame.
    p and p_i may be batches; their leading axes broadcast.
    """
    binv = standard_boost(p, None, convention).inverse()
    return wigner_rotation(binv, p_i, convention).inverse()


# Frames kept by _frame. Enough for the tables built at one frame to share
# it (both conventions, a rest frame beside a boosted one); too few to
# remember the frames of a sweep.
_FRAME_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _frame(spec, convention, key) -> tuple:
    """Per-frame part of a general-frame table: (theta, phi, D^{j1} x D^{j2}).

    key is the exact bytes of (E1, p1, E2, p2), so frames are told apart
    bit for bit (0.0 and -0.0 included). The pair is checked once per
    frame: above threshold in :func:`relative_direction`, then on the mass
    shell of spec; a bad pair raises on every call, as nothing is cached
    for it. theta and phi are the polar angles of the rest-frame relative
    direction; the Kronecker matrix turns the raveled rest-frame spin slots
    to the frame of the momenta, and is read-only because it is shared.
    """
    pair = FourMomentum.from_array(np.frombuffer(key, dtype=float).reshape(2, 4))
    p1, p2 = pair[0], pair[1]
    theta, phi = polar_angles(relative_direction(p1, p2, convention))
    for name, want, got in (("first", spec.s1, p1.mass2), ("second", spec.s2, p2.mass2)):
        if abs(want - got) > 1e-6 * max(1.0, abs(want)):
            raise ValueError(f"{name} momentum is off shell for the pair spec: {got} vs {want}")
    w = inverse_com_wigner(p1 + p2, pair, convention).matrix
    if spec.j1 == spec.j2:
        d1, d2 = rep_matrix(spec.j1, w)
    else:
        d1, d2 = rep_matrix(spec.j1, w[0]), rep_matrix(spec.j2, w[1])
    kron = np.kron(d1, d2)
    kron.flags.writeable = False
    return theta, phi, kron


def _angular_general(spec, j, channel, chi, p1, p2, convention, com_table):
    """A general-frame table: the rest-frame com_table at the frame's
    angles, its raveled spin slots turned by the frame's Kronecker matrix."""
    key = np.concatenate((p1.as_array(), p2.as_array())).tobytes()
    theta, phi, kron = _frame(spec, convention, key)
    return (kron @ com_table(spec, j, channel, chi, theta, phi).ravel()).reshape(spec.spin_shape)


def spin_orbit_general_table(
    spec: TwoParticleSpec, j, channel: SpinOrbitChannel, chi, p1: FourMomentum, p2: FourMomentum
) -> np.ndarray:
    """Coupling amplitudes of an orbital/spin channel in a general frame.

    chi labels the coupled spin component along the rest-frame z axis
    reached by the inverse canonical boost of p1 + p2. The returned array
    runs over the constituents' canonical spin components in the frame
    where p1 and p2 are given.
    """
    return _angular_general(spec, j, channel, chi, p1, p2, "canonical", spin_orbit_com_table)


def angular_spin_orbit_general(
    spec: TwoParticleSpec, j, l, s, chi, chi1, chi2, p1: FourMomentum, p2: FourMomentum
) -> complex:
    """One orbital/spin coupling amplitude in a general frame.

    The (chi1, chi2) slot of :func:`spin_orbit_general_table`, where chi1
    and chi2 are canonical spin components in the frame of p1 and p2.
    """
    table = spin_orbit_general_table(spec, j, SpinOrbitChannel(l, s), chi, p1, p2)
    return table[component_index(spec.j1, chi1), component_index(spec.j2, chi2)]


def helicity_general_table(
    spec: TwoParticleSpec, j, channel: HelicityChannel, chi, p1: FourMomentum, p2: FourMomentum
) -> np.ndarray:
    """Coupling amplitudes of a helicity channel in a general frame.

    The returned array runs over the constituents' helicity components in
    the frame where p1 and p2 are given; chi is relative to the rest frame
    reached by the inverse helicity boost of p1 + p2.
    """
    return _angular_general(spec, j, channel, chi, p1, p2, "helicity", helicity_com_table)


def angular_helicity_general(
    spec: TwoParticleSpec, j, lam1t, lam2t, lam, lam1, lam2, p1: FourMomentum, p2: FourMomentum
) -> complex:
    """One helicity coupling amplitude in a general frame.

    (lam1t, lam2t) label the channel (rest-frame constituent helicities);
    (lam1, lam2) pick the frame helicity slot of :func:`helicity_general_table`.
    """
    table = helicity_general_table(spec, j, HelicityChannel(lam1t, lam2t), chi=lam, p1=p1, p2=p2)
    return table[component_index(spec.j1, lam1), component_index(spec.j2, lam2)]


def helicity_to_wigner(j, p) -> np.ndarray:
    """Matrix converting helicity components at momentum p to canonical ones.

    Returns M = D^j(rho(p)^-1) = D^j(0, -theta, -phi), where rho(p) =
    Rz(phi) Ry(theta) carries +z to the direction of p. A helicity amplitude
    vector c_h (descending components) maps to the canonical amplitude
    vector c_w through c_w = M† c_h, and back through c_h = M c_w.
    """
    theta, phi = polar_angles(p.p if isinstance(p, FourMomentum) else p)
    return _wigner_D(j, 0.0, -theta, -phi)
