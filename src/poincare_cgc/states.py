"""Two-particle states on a center-of-mass sphere quadrature.

Discretizes the closed-form angular amplitudes of :mod:`poincare_cgc.cgc`
on a Gauss-Legendre x trapezoid product grid, takes quadrature inner
products, applies rotations exactly through preimage evaluation, and
decomposes spin-correlated product states into partial waves.

All states live on a single slice of fixed pair invariant mass squared s;
the slices decouple, so nothing here couples different values of s.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cgc import (
    HelicityChannel,
    SpinOrbitChannel,
    TwoParticleSpec,
    _check_above_threshold,
    _check_scheme,
    _spin_orbit_amplitudes,
    com_normalization,
    coupling_channels,
    helicity_com_table,
    spin_orbit_com_table,
)
from .errors import GridMismatch, GridTooCoarse, InvalidChannel
from .halfint import HalfInt, components
from .lorentz import polar_angles, require_su2, spinor_to_lorentz
from .su2 import _MAX_J, rep_matrix, spherical_harmonic, wigner_d_small

# Quadrature Gram diagonal of the basis states as built, measured once on
# 32x64 and 64x128 grids (it agrees with unity at the 1e-14 level for both
# schemes and is channel-independent). Kept as a named constant so the
# normalization is a documented measurement rather than an assumption.
MEASURED_GRAM_DIAGONAL = 1.0

BELL_LABELS = ("psi00", "psi01", "psi10", "psi11")


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature on the unit sphere.

    Gauss-Legendre nodes in cos(theta) crossed with a uniform trapezoid
    rule in phi, flattened in theta-major order. Weights sum to 4 pi and
    the rule integrates products of spherical harmonics exactly up to
    l = n_theta - 1 provided n_phi exceeds twice that degree.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.theta.size

    @property
    def nodes(self) -> np.ndarray:
        """(N, 3) array of (theta, phi, weight) rows."""
        return np.stack([self.theta, self.phi, self.weights], axis=-1)

    @property
    def directions(self) -> np.ndarray:
        """(N, 3) array of unit vectors at the nodes."""
        st = np.sin(self.theta)
        return np.stack(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)],
            axis=-1,
        )

    def matches(self, other: "QuadratureGrid") -> bool:
        return self.n_theta == other.n_theta and self.n_phi == other.n_phi


def build_grid(n_theta: int, n_phi: int) -> QuadratureGrid:
    """Build the sphere quadrature with n_theta polar and n_phi azimuthal nodes."""
    n_theta, n_phi = int(n_theta), int(n_phi)
    if n_theta < 2 or n_phi < 4:
        raise GridTooCoarse(
            f"grid {n_theta}x{n_phi} is degenerate; need n_theta >= 2 and n_phi >= 4"
        )
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    w = np.broadcast_to((wx[::-1] * (2.0 * np.pi / n_phi))[:, None], th.shape)
    return QuadratureGrid(n_theta, n_phi, th.ravel(), ph.ravel(), w.ravel().copy())


@dataclass(frozen=True, eq=False)
class ComBasisState:
    """One partial-wave basis state sampled on a sphere quadrature.

    amplitudes[node, i1, i2] is the angular amplitude at the node for the
    spin slot (chi1, chi2); slot indices run over components in descending
    order. Spin-orbit slots are fixed-axis components; helicity slots are
    components in the Jacob-Wick frames of :func:`_helicity_frames`, i.e.
    along each particle's own momentum. norm_prefactor is the
    kinematic constant sqrt(2)/2 * Delta(s, s1, s2)**(1/4) that multiplies
    the angular table in the full composite state; it is carried as a label
    and never folded into the amplitudes.

    A state is plain data. When closed_form is set, the amplitudes are the
    labels' closed form rotated by rotation, the SU(2) element applied so
    far (None while unrotated; stored as a private read-only copy), and
    the state can be evaluated exactly at any angles. Tables loaded from
    JSON or produced by slot conversion are not closed-form: their
    amplitudes are all they carry, and their rotation is None.
    """

    grid: QuadratureGrid
    spec: TwoParticleSpec
    s: float
    scheme: str
    j: HalfInt
    channel: object
    component: HalfInt
    amplitudes: np.ndarray
    norm_prefactor: float
    rotation: np.ndarray | None = field(default=None, repr=False)
    closed_form: bool = False

    def __post_init__(self):
        if self.rotation is not None:
            rotation = np.array(self.rotation, dtype=complex)
            rotation.flags.writeable = False
            object.__setattr__(self, "rotation", rotation)

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def evaluator(self) -> Callable | None:
        """Map of angle arrays to the amplitude table, None for a table."""
        return functools.partial(_evaluate, self) if self.closed_form else None


def _helicity_wavefunction(spec, j, channel, chi, theta, phi) -> np.ndarray:
    """Helicity basis amplitude: the complex conjugate of helicity_com_table.

    The tabulated cell sqrt((2j+1)/4pi) e^{-i chi phi} d^j_{chi mu}(theta)
    e^{i mu phi} is the coefficient <j chi | theta phi lam1 lam2>; the state's
    wavefunction in the frames of :func:`_helicity_frames` is its conjugate,
    sqrt((2j+1)/4pi) D^{j*}_{chi mu}(phi, theta, -phi) (Jacob and Wick).
    """
    return helicity_com_table(spec, j, channel, chi, theta, phi).conj()


def _closed_form(state: ComBasisState, theta, phi) -> np.ndarray:
    """The unrotated closed form of a state's labels at (theta, phi)."""
    fn = spin_orbit_com_table if state.scheme == "spin-orbit" else _helicity_wavefunction
    return fn(state.spec, state.j, state.channel, state.component, theta, phi)


def _evaluate(state: ComBasisState, theta, phi) -> np.ndarray:
    """A closed-form state's amplitude table at arbitrary angles."""
    if state.rotation is None:
        return _closed_form(state, theta, phi)
    source = functools.partial(_closed_form, state)
    return _rotated(state.spec, state.scheme, state.rotation, theta, phi, source)


def build_com_basis_state(grid, spec, s, j, channel, component) -> ComBasisState:
    """Sample one partial-wave channel's angular amplitude on a grid.

    The scheme is inferred from the channel label type. The channel must
    couple to the requested total spin j, and s must lie above the
    two-particle threshold.
    """
    j = HalfInt.of(j)
    component = HalfInt.of(component)
    _check_above_threshold(s, spec.s1, spec.s2)
    if isinstance(channel, SpinOrbitChannel):
        scheme = "spin-orbit"
    elif isinstance(channel, HelicityChannel):
        scheme = "helicity"
    else:
        raise InvalidChannel(f"not a channel label: {channel!r}")
    if channel not in coupling_channels(spec, j, scheme):
        raise InvalidChannel(f"channel {channel.label()} does not couple to j={j}")
    label = (j, channel, component)
    amplitude = _amplitude_source(spec, scheme, [label], grid.theta, grid.phi)
    return _basis_state(grid, spec, s, scheme, *label, amplitude(*label))


def _basis_state(grid, spec, s, scheme, j, channel, component, amplitudes):
    """A closed-form basis state of valid labels with its grid table."""
    return ComBasisState(
        grid=grid,
        spec=spec,
        s=float(s),
        scheme=scheme,
        j=j,
        channel=channel,
        component=component,
        amplitudes=amplitudes,
        norm_prefactor=com_normalization(s, spec.s1, spec.s2),
        closed_form=True,
    )


def all_basis_states(grid, spec, s, j_max, scheme) -> list[ComBasisState]:
    """Every basis state with total spin j <= j_max, in deterministic order.

    Order: j ascending, then channel enumeration order, then components
    descending. This is also the row order used by the decomposition and
    the command-line emitters. j_max must be nonnegative and small enough
    that no evaluated spin exceeds the supported maximum (ValueError).
    """
    scheme = _check_scheme(scheme)
    labels = _basis_labels(spec, j_max, scheme)
    _check_above_threshold(s, spec.s1, spec.s2)
    amplitude = _amplitude_source(spec, scheme, labels, grid.theta, grid.phi)
    return [
        _basis_state(grid, spec, s, scheme, j, channel, chi, amplitude(j, channel, chi))
        for j, channel, chi in labels
    ]


def _basis_labels(spec: TwoParticleSpec, j_max, scheme: str) -> list[tuple]:
    """(j, channel, chi) of every basis state with j <= j_max, in basis order.

    Rejects a negative j_max, and one whose largest evaluated spin (j_max
    itself for helicity d^j, l = j + j1 + j2 for spin-orbit) would exceed
    the supported maximum, before any amplitude is computed.
    """
    j_max = HalfInt.of(j_max)
    if j_max < HalfInt(0):
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    start = (spec.j1.twice + spec.j2.twice) % 2
    j_values = [HalfInt(t) for t in range(start, j_max.twice + 1, 2)]
    if j_values:
        top = j_values[-1] + (spec.j1 + spec.j2 if scheme == "spin-orbit" else 0)
        if top > _MAX_J:
            raise ValueError(
                f"j_max={j_max} needs spin {top} in the {scheme} scheme, "
                f"above the supported maximum {_MAX_J}"
            )
    return [
        (j, channel, chi)
        for j in j_values
        for channel in coupling_channels(spec, j, scheme)
        for chi in components(j)
    ]


def _amplitude_source(spec, scheme, labels, theta, phi) -> Callable:
    """amplitude(j, channel, chi): a label's angular table at fixed angles.

    Equal bit for bit to the scheme's angular function at (theta, phi).
    Spin-orbit tables read every Y_{lm} from one harmonic table built here
    once, up to the largest l among the labels, instead of evaluating a
    harmonic per table cell.
    """
    if scheme == "helicity":
        return lambda j, channel, chi: _helicity_wavefunction(spec, j, channel, chi, theta, phi)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    harmonics = _harmonic_table(
        max((int(channel.l) for _, channel, _ in labels), default=-1), theta, phi
    )

    def amplitude(j, channel, chi):
        row = int(channel.l) * (int(channel.l) + 1)
        return _spin_orbit_amplitudes(
            spec, j, channel, chi, shape, lambda l3: harmonics[row - int(l3)]
        )

    return amplitude


def _check_same_space(a: ComBasisState, b: ComBasisState) -> None:
    if not a.grid.matches(b.grid):
        raise GridMismatch("states live on different quadrature grids")
    if a.s != b.s:
        raise ValueError("states live at different invariant masses")
    if a.scheme != b.scheme:
        raise ValueError("states carry slots in different schemes")


def inner_product(a: ComBasisState, b: ComBasisState) -> complex:
    """Quadrature inner product sum_n w_n sum_slots conj(a) b.

    Both states must live on matching grids (GridMismatch otherwise), at
    the same s, and in the same scheme (ValueError otherwise).
    """
    _check_same_space(a, b)
    return complex(np.vdot(_weighted(a), b.amplitudes))


def _weighted(a: ComBasisState) -> np.ndarray:
    return a.grid.weights[:, None, None] * a.amplitudes


def gram_matrix(states) -> np.ndarray:
    """Hermitian matrix of pairwise inner products.

    Entry (i, k) equals inner_product(states[i], states[k]) exactly for
    i <= k and is mirrored below the diagonal. The states are checked
    once, raising what inner_product raises for the first state that does
    not share grid, s and scheme with the first one. Each row weights its
    state once; the states are never stacked, so no copy of the basis is
    made.
    """
    states = list(states)
    for b in states:
        _check_same_space(states[0], b)
    out = np.empty((len(states), len(states)), dtype=complex)
    for i, a in enumerate(states):
        weighted = _weighted(a)
        for k in range(i, len(states)):
            val = np.vdot(weighted, states[k].amplitudes)
            out[k, i] = np.conj(val)
            out[i, k] = val
    return out


def _helicity_frames(theta, phi, j1=HalfInt(1), j2=HalfInt(1)):
    """Spin-j1 and spin-j2 matrices of the two helicity frames at (theta, phi).

    Particle 1 moves along the relative direction n = (theta, phi); its
    helicity slots refer to the Jacob-Wick frame R(phi, theta, -phi) =
    Rz(phi) Ry(theta) Rz(-phi). Particle 2 moves along -n; its slots refer
    to R(phi, theta, -phi) Ry(pi), so slot lam2 has spin component -lam2
    along n and the pair carries mu = lam1 - lam2 along n. Both frames are
    single valued on SU(2) for every azimuth. The default spins give the
    SU(2) matrices themselves. Vectorized over the angles; the matrix axes
    are the trailing two.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))

    def frame(j):
        tw = np.array([m.twice for m in components(j)])
        zphase = np.exp(-0.5j * phi[..., None] * tw)
        return zphase[..., :, None] * wigner_d_small(j, theta) * zphase.conj()[..., None, :]

    j1, j2 = HalfInt.of(j1), HalfInt.of(j2)
    f1 = frame(j1)
    f2 = f1 if j2 == j1 else frame(j2)
    return f1, f2 @ wigner_d_small(j2, np.pi)


def _zrot_diag(j, w):
    """Diagonal of the spin-j representation of a z-axis rotation.

    w is the upper-left entry of the SU(2) matrix; entry m of the result
    is w**(2m) with components in descending order.
    """
    tw = np.array([m.twice for m in components(HalfInt.of(j))])
    return np.power(np.asarray(w)[..., None], tw)


def _little_group_phase(u, r_img, r_pre):
    """Upper-left entry of r_img^-1 u r_pre for a rotation u.

    r_img and r_pre are SU(2) frames at an image direction and at its
    preimage under u; the product then fixes the z axis, so it is a z-axis
    rotation whose diagonal determines the helicity-slot mixing. The
    off-diagonal is checked, not assumed.
    """
    w = np.einsum("...ba,bc,...cd->...ad", r_img.conj(), u, r_pre)
    off = float(np.max(np.abs(w[..., 0, 1])) + np.max(np.abs(w[..., 1, 0])))
    if off > 1e-8:
        raise ValueError(
            f"little-group element is not a z-rotation (off-diagonal {off:.2e}); "
            "the rotation does not map the given directions onto each other"
        )
    val = w[..., 0, 0]
    return val / np.abs(val)


def _rotated(spec, scheme, u, theta, phi, source: Callable) -> np.ndarray:
    """Amplitude table at (theta, phi) of a state rotated by u.

    The rotated amplitude at direction n is source, the unrotated state's
    amplitude function, at the preimage direction u^-1 n, with each
    particle's spin slots mixed by its little-group element in the
    state's scheme: the constant matrix u itself for fixed-axis
    (spin-orbit) slots, a direction-dependent z-rotation phase between the
    helicity frames at the image and the preimage for helicity slots.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    dirs = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta) * np.ones_like(phi)], axis=-1
    )
    thp, php = polar_angles(dirs @ spinor_to_lorentz(u)[1:, 1:])
    amp = source(thp, php)
    if scheme == "spin-orbit":
        d1 = rep_matrix(spec.j1, u)
        d2 = rep_matrix(spec.j2, u)
        return np.einsum("ac,bd,...cd->...ab", d1, d2, amp)
    img = _helicity_frames(theta, phi)
    pre = _helicity_frames(thp, php)
    d1 = _zrot_diag(spec.j1, _little_group_phase(u, img[0], pre[0]))
    d2 = _zrot_diag(spec.j2, _little_group_phase(u, img[1], pre[1]))
    return amp * d1[..., :, None] * d2[..., None, :]


def _interpolated(state: ComBasisState, theta, phi) -> np.ndarray:
    """A table's amplitudes at arbitrary angles, from a harmonic fit.

    The table is projected onto scalar harmonics with l <= n_theta - 1
    slot by slot, in fixed-axis slots: helicity slots are not band-limited
    where the frames turn, since a cell e^{2i chi phi} d^j_{chi,-chi}(theta)
    stays nonzero at the south pole. A helicity table is therefore
    converted before the fit, and its helicity slots are restored by the
    frames at (theta, phi). Exact for tables band-limited below the grid
    resolution, an approximation otherwise.
    """
    grid = state.grid
    fixed = state if state.scheme == "spin-orbit" else convert_slots_to_canonical(state)
    table = _harmonic_table(grid.n_theta - 1, grid.theta, grid.phi)
    coeffs = np.einsum("kn,n,n...->k...", table.conj(), grid.weights, fixed.amplitudes)
    th, ph = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    point = _harmonic_table(grid.n_theta - 1, th.ravel(), ph.ravel())
    slots = np.einsum("km,k...->m...", point, coeffs).reshape(th.shape + coeffs.shape[1:])
    if state.scheme == "spin-orbit":
        return slots
    return _fixed_to_helicity_slots(state.spec, theta, phi, slots)


def _fixed_to_helicity_slots(spec, theta, phi, slots) -> np.ndarray:
    """Fixed-axis spin slots re-expressed in the helicity frames at (theta, phi).

    The inverse of :func:`convert_slots_to_canonical`'s map; broadcasts
    over the angles, with the spin axes of slots trailing.
    """
    f1, f2 = _helicity_frames(theta, phi, spec.j1, spec.j2)
    return np.einsum("...ca,...db,...cd->...ab", f1.conj(), f2.conj(), slots)


def _harmonic_table(lmax: int, theta, phi) -> np.ndarray:
    """Rows of spherical harmonics, l ascending and m descending within l.

    Row l(l+1) - m holds Y_{lm}. Each m >= 0 row is one spherical_harmonic
    call; the m < 0 rows follow from Y_{l,-m} = (-1)^m conj(Y_{lm}), the
    same arithmetic spherical_harmonic uses for them, so every row equals
    spherical_harmonic(l, m, theta, phi) bit for bit.
    """
    rows = []
    for l in range(lmax + 1):
        top = [spherical_harmonic(HalfInt(2 * l), HalfInt(2 * m), theta, phi)
               for m in range(l, -1, -1)]
        rows += top + [(-1.0) ** m * np.conj(top[l - m]) for m in range(1, l + 1)]
    return np.array(rows)


def apply_rotation(state: ComBasisState, u) -> ComBasisState:
    """Rotate a grid state.

    Node directions map forward under the rotation; the new table is built
    by evaluating the state at preimage nodes, and each particle's spin
    slots are mixed by its little-group representation matrix in the
    state's scheme (:func:`_rotated`).

    Helicity little-group elements are taken between the Jacob-Wick frames
    of :func:`_helicity_frames` at each node and at its preimage. Those
    frames are single valued on SU(2), so the phases are continuous across
    the phi = 0 seam and need no choice of branch there.

    A closed-form state records u @ state.rotation and is evaluated once
    from its labels, so no interpolation error enters and rotations
    compose: u then v equals v @ u. A table is read at the preimage nodes
    through :func:`_interpolated`, exact for tables band-limited below the
    grid resolution, as a basis state is when j + j1 + j2 <= n_theta - 1.

    Only rotations are accepted: they preserve the fixed-s sphere the
    states live on. Anything outside SU(2) raises NotARotation.
    """
    u = require_su2(u)
    grid = state.grid
    if state.closed_form:
        rotated = dataclasses.replace(
            state, rotation=u if state.rotation is None else u @ state.rotation
        )
        return dataclasses.replace(rotated, amplitudes=_evaluate(rotated, grid.theta, grid.phi))
    source = functools.partial(_interpolated, state)
    amplitudes = _rotated(state.spec, state.scheme, u, grid.theta, grid.phi, source)
    return dataclasses.replace(state, amplitudes=amplitudes)


def convert_slots_to_canonical(state: ComBasisState) -> ComBasisState:
    """Re-express a helicity-scheme state's spin slots as fixed-axis components.

    Each particle's helicity slots are carried to fixed-axis components by
    the spin matrix of its helicity frame (:func:`_helicity_frames`),
    applied node by node. A converted basis state of total spin j lies in
    the span of the orbital/spin basis states with the same j. The result
    carries scheme "spin-orbit" so it can be compared against spin-orbit
    basis states; its channel label is kept from the source state.
    """
    if state.scheme != "helicity":
        raise ValueError("slot conversion applies to helicity-scheme states")
    f1, f2 = _helicity_frames(state.grid.theta, state.grid.phi, state.spec.j1, state.spec.j2)
    amps = np.einsum("nac,nbd,ncd->nab", f1, f2, state.amplitudes)
    return dataclasses.replace(
        state, scheme="spin-orbit", amplitudes=amps, rotation=None, closed_form=False
    )


@dataclass(frozen=True, eq=False)
class DeltaProductState:
    """Product state localized at a single relative direction.

    coefficients[i1, i2] weights the pair with fixed-axis spin components
    (chi1, chi2), slot indices descending; the table must be normalized to
    sum |c|^2 = 1.
    """

    spec: TwoParticleSpec
    theta: float
    phi: float
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != self.spec.spin_shape:
            raise ValueError(f"coefficient table must have shape {self.spec.spin_shape}")
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"angles must be finite, got theta = {theta}, phi = {phi}")
        # "not <=" so that a NaN norm fails too
        if not abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= 1e-8:
            raise ValueError("delta-state coefficients must satisfy sum |c|^2 = 1")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True, eq=False)
class GridProductState:
    """Product state sampled on a quadrature grid.

    amplitudes[node, i1, i2] with slot indices descending; the slots are
    interpreted in the named scheme's frames (fixed-axis components for
    "spin-orbit", momentum-local components for "helicity").
    """

    grid: QuadratureGrid
    spec: TwoParticleSpec
    amplitudes: np.ndarray
    scheme: str = "spin-orbit"

    def __post_init__(self):
        _check_scheme(self.scheme)
        amps = np.asarray(self.amplitudes, dtype=complex)
        want = (self.grid.size,) + self.spec.spin_shape
        if amps.shape != want:
            raise ValueError(f"amplitude table must have shape {want}")
        object.__setattr__(self, "amplitudes", amps)

    def norm2(self) -> float:
        """Quadrature norm squared."""
        return float(np.einsum("n,ncd->", self.grid.weights, np.abs(self.amplitudes) ** 2))


_BELL_TABLES = {
    "psi00": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "psi01": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "psi10": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "psi11": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


def bell_state(label, theta=0.0, phi=0.0, spec=None) -> DeltaProductState:
    """One of the four maximally spin-correlated spin-1/2 product states.

    Slot 0 is component +1/2. psi00 and psi10 are the symmetric and
    antisymmetric aligned combinations (up up +/- down down)/sqrt(2);
    psi01 and psi11 are the anti-aligned ones (up down +/- down up)/sqrt(2),
    psi11 being the rotationally invariant singlet.
    """
    if spec is None:
        spec = TwoParticleSpec.fermion_pair(1.0)
    if spec.spin_shape != (2, 2):
        raise ValueError("spin-correlated pair labels need a spin-1/2 pair")
    try:
        table = _BELL_TABLES[label]
    except KeyError:
        raise ValueError(
            f"unknown product-state label {label!r}; expected one of {BELL_LABELS}"
        ) from None
    return DeltaProductState(
        spec=spec, theta=theta, phi=phi,
        coefficients=table.astype(complex) / math.sqrt(2.0),
    )


@dataclass(frozen=True)
class DecompositionEntry:
    j: HalfInt
    channel: object
    component: HalfInt
    coefficient: complex


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Partial-wave coefficient table of a product state.

    entries are ordered j ascending, channel enumeration order, components
    descending. psi_norm2 is the quadrature norm of the input (inf for
    delta-localized states, whose norm is distributional); the truncation
    residual psi_norm2 - coeff_norm2 is reported, never raised as an error.
    """

    scheme: str
    s: float
    j_max: HalfInt
    entries: tuple
    psi_norm2: float
    coeff_norm2: float
    truncation_residual: float


def decompose_product_state(psi, spec, s, j_max, scheme="spin-orbit") -> Decomposition:
    """Partial-wave coefficients of a product state, for every j <= j_max.

    Each coefficient is the overlap of the corresponding basis amplitude
    with the input: a pointwise conjugated-amplitude contraction for
    delta-localized states, a quadrature inner product for grid states.
    Delta-state spin slots are fixed-axis components and are converted to
    the local helicity frames first when decomposing in the helicity
    scheme; grid states must already carry slots in the requested scheme.
    j_max is checked as in :func:`all_basis_states`, and the state's
    constituent spins must be those of spec.
    """
    scheme = _check_scheme(scheme)
    if not isinstance(psi, (DeltaProductState, GridProductState)):
        raise ValueError(f"not a product state: {psi!r}")
    if (psi.spec.j1, psi.spec.j2) != (spec.j1, spec.j2):
        raise ValueError(
            f"product state has spins ({psi.spec.j1}, {psi.spec.j2}); "
            f"the spec has ({spec.j1}, {spec.j2})"
        )
    j_max = HalfInt.of(j_max)
    labels = _basis_labels(spec, j_max, scheme)
    _check_above_threshold(s, spec.s1, spec.s2)
    if isinstance(psi, DeltaProductState):
        slots = psi.coefficients
        if scheme == "helicity":
            slots = _fixed_to_helicity_slots(spec, psi.theta, psi.phi, slots)
        amplitude = _amplitude_source(spec, scheme, labels, psi.theta, psi.phi)

        def overlap(amp):
            return complex(np.sum(amp.conj() * slots))

        psi_norm2 = math.inf
    else:
        if psi.scheme != scheme:
            raise ValueError(
                f"grid state carries {psi.scheme!r} slots; cannot decompose in {scheme!r}"
            )
        grid = psi.grid
        amplitude = _amplitude_source(spec, scheme, labels, grid.theta, grid.phi)

        def overlap(amp):
            return complex(
                np.einsum("n,ncd,ncd->", grid.weights, amp.conj(), psi.amplitudes)
            )

        psi_norm2 = psi.norm2()

    entries = [
        DecompositionEntry(j, channel, chi, overlap(amplitude(j, channel, chi)))
        for j, channel, chi in labels
    ]
    coeff_norm2 = float(sum(abs(e.coefficient) ** 2 for e in entries))
    residual = math.inf if math.isinf(psi_norm2) else psi_norm2 - coeff_norm2
    return Decomposition(
        scheme=scheme,
        s=float(s),
        j_max=j_max,
        entries=tuple(entries),
        psi_norm2=psi_norm2,
        coeff_norm2=coeff_norm2,
        truncation_residual=residual,
    )


def reconstruct(decomposition: Decomposition, grid: QuadratureGrid,
                spec: TwoParticleSpec) -> GridProductState:
    """Sum coefficient times basis amplitude over all entries of a decomposition."""
    entries = decomposition.entries
    amplitude = _amplitude_source(
        spec, decomposition.scheme, [(e.j, e.channel, e.component) for e in entries],
        grid.theta, grid.phi,
    )
    total = np.zeros((grid.size,) + spec.spin_shape, dtype=complex)
    for e in entries:
        total += e.coefficient * amplitude(e.j, e.channel, e.component)
    return GridProductState(grid=grid, spec=spec, amplitudes=total,
                            scheme=decomposition.scheme)


def state_to_json(state: ComBasisState) -> str:
    """Serialize a grid state.

    Schema: {scheme, s, j, eta, component, grid: {n_theta, n_phi},
    amplitudes: [[re, im], ...]} with amplitudes flattened in node-major,
    chi1-then-chi2-minor order (C-order raveling of the stored table).
    eta holds the degeneracy pair: (l, s) for spin-orbit channels,
    (lambda1, lambda2) for helicity channels. Half-integers are stored as
    exact binary floats, so the text round-trips bit-exactly.
    """
    if isinstance(state.channel, SpinOrbitChannel):
        eta = [float(state.channel.l), float(state.channel.s)]
    else:
        eta = [float(state.channel.lam1), float(state.channel.lam2)]
    flat = state.amplitudes.ravel()
    payload = {
        "scheme": state.scheme,
        "s": float(state.s),
        "j": float(state.j),
        "eta": eta,
        "component": float(state.component),
        "grid": {"n_theta": state.grid.n_theta, "n_phi": state.grid.n_phi},
        "amplitudes": [[float(z.real), float(z.imag)] for z in flat],
    }
    return json.dumps(payload)


def _json_field(data: dict, name: str, kind=(int, float)):
    """The named field of a state's JSON object, checked against kind.

    A dotted name ("grid.n_theta") reaches into nested objects. A missing
    or ill-typed field raises ValueError naming it; booleans are not
    numbers here.
    """
    value = data
    path = name.split(".")
    for depth, key in enumerate(path, 1):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"state JSON lacks the field {'.'.join(path[:depth])!r}")
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"state JSON field {name!r} has the wrong type {type(value).__name__}")
    return value


def _json_half(name: str, value) -> HalfInt:
    """A half-integer label read from the named field of a state's JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return HalfInt.of(value)
        except ValueError:
            pass
    raise ValueError(f"state JSON field {name!r} must hold half-integers, got {value!r}")


def state_from_json(text: str, spec: TwoParticleSpec) -> ComBasisState:
    """Rebuild a grid state from its JSON form.

    The schema does not carry the particle spins or masses, so the matching
    spec must be supplied. Loaded states carry the stored table verbatim
    and are not closed-form; rotating them uses spherical-harmonic
    interpolation. Malformed JSON, and a missing or ill-typed field, raise
    ValueError.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    scheme = _check_scheme(_json_field(data, "scheme", str))
    grid = build_grid(_json_field(data, "grid.n_theta", int), _json_field(data, "grid.n_phi", int))
    eta = _json_field(data, "eta", list)
    if len(eta) != 2:
        raise ValueError(f"state JSON field 'eta' must hold two labels, got {len(eta)}")
    labels = [_json_half("eta", x) for x in eta]
    channel = (SpinOrbitChannel if scheme == "spin-orbit" else HelicityChannel)(*labels)
    s = float(_json_field(data, "s"))
    pairs = _json_field(data, "amplitudes", list)
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError):
        raise ValueError("state JSON field 'amplitudes' must hold [re, im] number pairs") from None
    want = (grid.size,) + spec.spin_shape
    if flat.size != math.prod(want):
        raise ValueError(
            f"amplitude list has {flat.size} entries; grid and spins require {math.prod(want)}"
        )
    return ComBasisState(
        grid=grid,
        spec=spec,
        s=s,
        scheme=scheme,
        j=_json_half("j", _json_field(data, "j")),
        channel=channel,
        component=_json_half("component", _json_field(data, "component")),
        amplitudes=flat.reshape(want),
        norm_prefactor=com_normalization(s, spec.s1, spec.s2),
    )
