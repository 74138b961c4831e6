"""Two-particle states on a center-of-mass sphere quadrature.

Discretizes the closed-form angular amplitudes of :mod:`poincare_cgc.cgc`
on a Gauss-Legendre x trapezoid product grid, takes quadrature inner
products, rotates states through their harmonic coefficients, and
decomposes spin-correlated product states into partial waves.

All states live on a single slice of fixed pair invariant mass squared s;
the slices decouple, so nothing here couples different values of s.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cgc import (
    HelicityChannel,
    SpinOrbitChannel,
    TwoParticleSpec,
    _Layout,
    _basis_layout,
    _check_above_threshold,
    _check_scheme,
    _label_table,
    _label_tables,
    _one_label_layout,
    com_normalization,
)
from .errors import GridMismatch, GridTooCoarse, InvalidChannel, InvalidOrbitalLabel
from .halfint import HalfInt
from .lorentz import require_su2
from . import su2
from .su2 import _MAX_L, _finite_angles, _norms, _rotated_harmonics, _wigner_D, euler_zyz, wigner_d_small

# Quadrature Gram diagonal of the basis states as built, measured once on
# 32x64 and 64x128 grids (it agrees with unity at the 1e-14 level for both
# schemes and is channel-independent). Kept as a named constant so the
# normalization is a documented measurement rather than an assumption.
MEASURED_GRAM_DIAGONAL = 1.0

BELL_LABELS = ("psi00", "psi01", "psi10", "psi11")

_CHANNEL_TYPES = {"spin-orbit": SpinOrbitChannel, "helicity": HelicityChannel}


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature on the unit sphere.

    Gauss-Legendre nodes in cos(theta) crossed with a uniform trapezoid
    rule in phi, flattened in theta-major order. Weights sum to 4 pi and
    the rule resolves the spherical harmonics up to its band
    (:attr:`band`).
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
    def band(self) -> int:
        """L = min(n_theta - 1, (n_phi - 1) // 2): the Gauss-Legendre nodes
        integrate products of harmonics exactly up to l = n_theta - 1, and
        past (n_phi - 1) // 2 orders would share DFT bins with lower ones."""
        return min(self.n_theta - 1, (self.n_phi - 1) // 2)

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_theta, 1) polar and (1, n_phi) azimuthal nodes; they broadcast
        to the (n_theta, n_phi) nodes, which ravel to the grid's order."""
        return self.theta[:: self.n_phi, None], self.phi[None, : self.n_phi]

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


def _grid_sizes(n_theta, n_phi) -> tuple[int, int]:
    """A sphere quadrature's sizes as ints: a non-integer raises ValueError,
    never rounded; a degenerate grid raises GridTooCoarse."""
    try:
        n_theta, n_phi = operator.index(n_theta), operator.index(n_phi)
    except TypeError:
        raise ValueError(f"grid sizes must be integers, got {n_theta!r} x {n_phi!r}") from None
    if n_theta < 2 or n_phi < 4:
        raise GridTooCoarse(
            f"grid {n_theta}x{n_phi} is degenerate; need n_theta >= 2 and n_phi >= 4"
        )
    return n_theta, n_phi


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], once per n; read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_grid(n_theta: int, n_phi: int) -> QuadratureGrid:
    """Build the sphere quadrature with n_theta polar and n_phi azimuthal
    nodes; the sizes must pass :func:`_grid_sizes`."""
    n_theta, n_phi = _grid_sizes(n_theta, n_phi)
    x, wx = _gauss_legendre(n_theta)
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
    :func:`apply_rotation` turns a closed-form state's exact coefficients
    from its labels, and :func:`gram_matrix` reads only the phi = 0 ring
    and the component of an unrotated one, so a caller that replaces
    amplitudes also clears closed_form.
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
        return functools.partial(_evaluated, self) if self.closed_form else None


def _require_finite(amplitudes) -> None:
    """A table holding NaN or an infinity raises ValueError naming 'amplitudes'."""
    if not np.isfinite(amplitudes).all():
        raise ValueError("the table 'amplitudes' must be finite")


def build_com_basis_state(grid, spec, s, j, channel, component) -> ComBasisState:
    """Sample one partial-wave channel's angular amplitude on a grid.

    The scheme is inferred from the channel label type. The labels must
    pass :func:`_check_label`, and s must lie above the two-particle
    threshold.
    """
    scheme = next((k for k, kind in _CHANNEL_TYPES.items() if isinstance(channel, kind)), None)
    if scheme is None:
        raise InvalidChannel(f"not a channel label: {channel!r}")
    return _basis_states(grid, spec, s, _check_label(spec, scheme, j, channel, component))[0]


def all_basis_states(grid, spec, s, j_max, scheme) -> list[ComBasisState]:
    """Every basis state with total spin j <= j_max, in deterministic order.

    Order: j ascending, then channel enumeration order, then components
    descending. This is also the row order used by the decomposition and
    the command-line emitters. j_max must be nonnegative and small enough
    that no evaluated spin exceeds the supported maximum (ValueError).
    """
    layout = _basis_layout(spec, _check_scheme(scheme), HalfInt.of(j_max))
    return _basis_states(grid, spec, s, layout)


def _basis_states(grid, spec, s, layout) -> list[ComBasisState]:
    """The closed-form basis states of a layout's labels on a grid: one
    normalization and one :func:`_label_tables` pass, whose block gives
    each state its own row, so a kept state keeps the block."""
    norm = com_normalization(s, spec.s1, spec.s2)
    tables = _label_tables(layout, *grid.axes)
    return [
        ComBasisState(grid, spec, float(s), layout.scheme, *label,
                      table.reshape((grid.size,) + spec.spin_shape), norm, closed_form=True)
        for label, table in zip(layout.labels, tables)
    ]


def _check_label(spec, scheme, j, channel, chi) -> _Layout:
    """The layout of (j, channel, chi) as a basis label of the scheme: it
    must pass :func:`_one_label_layout` and have a block_row, which only a
    helicity channel with |mu| > j lacks (InvalidChannel)."""
    layout = _one_label_layout(spec.j1, spec.j2, scheme, j, channel, chi)
    if layout.block_row is None:
        raise InvalidChannel(f"channel {channel.label()} does not couple to j={layout.labels[0][0]}")
    return layout


def _check_same_space(a: ComBasisState, b: ComBasisState) -> None:
    if not a.grid.matches(b.grid):
        raise GridMismatch("states live on different quadrature grids")
    if a.spec != b.spec:
        pairs = [f"spins ({p.j1}, {p.j2}) with masses squared ({p.s1}, {p.s2})"
                 for p in (a.spec, b.spec)]
        raise ValueError("states couple different constituents: " + " against ".join(pairs))
    if a.s != b.s:
        raise ValueError("states live at different invariant masses")
    if a.scheme != b.scheme:
        raise ValueError("states carry slots in different schemes")


def inner_product(a: ComBasisState, b: ComBasisState) -> complex:
    """Quadrature inner product sum_n w_n sum_slots conj(a) b.

    Both states must live on matching grids (GridMismatch otherwise), with
    the same spec, at the same s, and in the same scheme (ValueError
    otherwise). The products are added by numpy's pairwise sum, whose
    error grows as log N, not as the N of one running dot.
    """
    _check_same_space(a, b)
    return complex(np.sum((a.grid.weights[:, None, None] * a.amplitudes).conj() * b.amplitudes))


# node-slot entries of every state per BLAS product in gram_matrix
_GRAM_CHUNK = 128


def gram_matrix(states) -> np.ndarray:
    """Hermitian matrix of pairwise inner products, to roundoff.

    The states are checked once, raising what inner_product raises for the
    first state that does not share grid, spec, s and scheme with the
    first one. Each block of states is summed by :func:`_gram_parts`: with
    B the block's columns times the square roots of their weights, split
    into real and imaginary parts Br and Bi, Re G = Br Br^T + Bi Bi^T and
    Im G = M - M^T with M = Br Bi^T. G is therefore Hermitian bit for bit,
    with a real diagonal, and exactly 0 between blocks.

    When every state is closed-form and unrotated, each slot s of a table
    is its phi = 0 ring times e^{i (chi - sigma_s) phi}, sigma_s being
    chi1 + chi2 (spin-orbit) or lam1 - lam2 (helicity). The trapezoid rule
    in phi then makes G_ik exactly 0 unless chi_i = chi_k mod n_phi, and
    otherwise n_phi sum_theta w_theta sum_s conj(A_i) A_k on the rings. A
    block is one such class of components, its columns the raveled rings.

    Any other list (tables, rotated states, or a mix) is one block over
    the samples, its columns the raveled tables. The scratch is
    O(n^2 + n * _GRAM_CHUNK), and the states are never stacked whole.
    """
    states = list(states)
    for b in states:
        _check_same_space(states[0], b)
    if not states:
        return np.empty((0, 0), dtype=complex)
    if all(st.closed_form and st.rotation is None for st in states):
        blocks = _component_blocks(states)
    else:
        # build_grid's weights are Gauss-Legendre times trapezoid weights, all positive
        root_w = np.repeat(np.sqrt(states[0].grid.weights), states[0].amplitudes[0].size)
        blocks = [(list(range(len(states))), ([st.amplitudes.reshape(-1) for st in states], root_w))]
    parts = [(np.ix_(members, members), _gram_parts(*block)) for members, block in blocks]
    out = np.zeros((len(states),) * 2, dtype=complex)
    for block, (sym, cross) in parts:
        out.real[block] = sym
        out.imag[block] = cross - cross.T
    return out


def _component_blocks(states) -> list[tuple[list[int], tuple]]:
    """(state indices, :func:`_gram_parts` arguments) of each class of
    closed-form unrotated states whose components agree mod n_phi: their
    raveled phi = 0 rings, weighted by sqrt(n_phi w_theta) per slot."""
    grid = states[0].grid
    n_slots = states[0].amplitudes[0].size
    rings = [st.amplitudes.reshape(grid.n_theta, grid.n_phi, n_slots)[:, 0].reshape(-1)
             for st in states]
    root_w = np.repeat(np.sqrt(grid.n_phi * grid.weights[:: grid.n_phi]), n_slots)
    classes = {}
    for i, st in enumerate(states):
        classes.setdefault(st.component.twice % (2 * grid.n_phi), []).append(i)
    return [(members, ([rings[i] for i in members], root_w)) for members in classes.values()]


def _gram_parts(flats, root_w) -> tuple[np.ndarray, np.ndarray]:
    """Br Br^T + Bi Bi^T and Br Bi^T of :func:`gram_matrix` for one block.

    flats holds the states' 1-D columns, each as long as root_w. Each
    chunk of _GRAM_CHUNK entries is copied into one reused buffer, then
    the two symmetric rank-k updates and Br Bi^T are added in; the buffers
    are freed before gram_matrix allocates the result.
    """
    n, size = len(flats), root_w.size
    width = min(_GRAM_CHUNK, size)
    chunk, buf = np.empty(n * width, dtype=complex), np.empty(2 * n * width)
    sym, cross = np.zeros((n, n)), np.zeros((n, n))
    for lo in range(0, size, width):
        hi = min(lo + width, size)
        k = hi - lo
        z = np.concatenate([f[lo:hi] for f in flats], out=chunk[: n * k]).reshape(n, k)
        br, bi = buf[: 2 * n * k].reshape(2, n, k)
        np.multiply(z.real, root_w[lo:hi], out=br)
        np.multiply(z.imag, root_w[lo:hi], out=bi)
        # numpy hands a @ a.T to syrk and mirrors it exactly
        sym += br @ br.T
        sym += bi @ bi.T
        cross += br @ bi.T
    return sym, cross


def _helicity_frames(theta, phi, j1, j2):
    """Spin-j1 and spin-j2 matrices of the two helicity frames at (theta, phi).

    Particle 1 moves along the relative direction n = (theta, phi); its
    helicity slots refer to the Jacob-Wick frame R(phi, theta, -phi) =
    Rz(phi) Ry(theta) Rz(-phi). Particle 2 moves along -n; its slots refer
    to R(phi, theta, -phi) Ry(pi), so slot lam2 has spin component -lam2
    along n and the pair carries mu = lam1 - lam2 along n. Both frames are
    single valued on SU(2) for every azimuth. Spins 1/2 give the SU(2)
    matrices themselves. The angles broadcast against each other, so a
    grid's axes build d^j(theta) once per polar node; the matrix axes are
    the trailing two.
    """
    f1 = _wigner_D(j1, phi, theta, -phi)
    f2 = f1 if j2 == j1 else _wigner_D(j2, phi, theta, -phi)
    return f1, f2 @ wigner_d_small(j2, np.pi)


# entries kept by each cache of grid-only tables (_grid_frames, _fit_tables):
# the grid sizes, and spins for the frames or bands for the fit, of a few grids in use at once
_GRID_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid_frames(n_theta: int, n_phi: int, j1: HalfInt, j2: HalfInt) -> tuple:
    """The helicity frames (:func:`_helicity_frames`) of spins j1 and j2 at
    the nodes of the n_theta x n_phi grid, as (N, 2j+1, 2j+1) arrays, for
    rotations and slot conversion; once per grid size and spins,
    read-only, with the bytes of the frames at the grid's node arrays."""
    frames = tuple(f.reshape((n_theta * n_phi,) + f.shape[2:])
                   for f in _helicity_frames(*build_grid(n_theta, n_phi).axes, j1, j2))
    for f in frames:
        f.flags.writeable = False
    return frames


def _fixed_axis_slots(grid: QuadratureGrid, j1, j2, table) -> np.ndarray:
    """A helicity table's slots as fixed-axis components, by the frames at the grid's nodes."""
    f1, f2 = _grid_frames(grid.n_theta, grid.n_phi, j1, j2)
    return _sandwich(f1, table, f2)


@functools.cache
def _label_coefficients(j1, j2, scheme, j, channel, chi) -> np.ndarray:
    """The exact harmonic coefficients of a basis label's closed form in
    fixed-axis slots, laid out as :func:`_harmonic_fit`'s at the band
    B = j + j1 + j2; once per label, read-only. Every basis state of either
    scheme is band-limited to l <= B in fixed-axis slots, so the fit on the
    (B + 2) x (2B + 4) grid, whose band B + 1 integrates every product with
    it exactly, reads them to roundoff; the degree B + 1 is cut."""
    band = int(j + j1 + j2)
    grid = build_grid(band + 2, 2 * band + 4)
    table = _label_tables(_one_label_layout(j1, j2, scheme, j, channel, chi), *grid.axes)[0]
    table = table.reshape((grid.size,) + table.shape[2:])
    if scheme == "helicity":
        table = _fixed_axis_slots(grid, j1, j2, table)
    coeffs = _harmonic_fit(grid, table)[1:-1, :-1]
    coeffs.flags.writeable = False
    return coeffs


def _turned(state: ComBasisState, u) -> tuple[np.ndarray, np.ndarray]:
    """A state's fixed-axis harmonic coefficients turned by u degree by
    degree (:func:`poincare_cgc.su2._rotated_harmonics`), and the slot
    matrix D^{j1}(u) x D^{j2}(u), from one euler_zyz. A closed form turns
    its unrotated labels' coefficients, so u is its whole rotation; a table
    is fit on its grid, a helicity one in fixed-axis slots, since helicity
    slots are not band-limited where the frames turn (a cell
    e^{2i chi phi} d^j_{chi,-chi}(theta) stays nonzero at the south pole)."""
    spec, table = state.spec, state.amplitudes
    if state.closed_form:
        coeffs = _label_coefficients(spec.j1, spec.j2, state.scheme, state.j, state.channel, state.component)
    else:
        fixed = table if state.scheme == "spin-orbit" else _fixed_axis_slots(state.grid, spec.j1, spec.j2, table)
        coeffs = _harmonic_fit(state.grid, fixed)
    angles = euler_zyz(u[None])
    return _rotated_harmonics(coeffs, *np.ravel(angles)), su2._slot_matrix(spec.j1, spec.j2, angles)


def _rotated_table(state: ComBasisState, u) -> np.ndarray:
    """A state's amplitudes on its grid rotated by u, one law for closed
    forms and tables of both schemes: the turned coefficients
    (:func:`_turned`) summed on the grid's own nodes, the slots mixed, and
    helicity slots converted back with the frames at the nodes."""
    grid, spec = state.grid, state.spec
    coeffs, mix = _turned(state, u)
    mixed = (_harmonic_synthesis(grid, coeffs) @ mix.T).reshape(state.amplitudes.shape)
    if state.scheme == "spin-orbit":
        return mixed
    f1, f2 = _grid_frames(grid.n_theta, grid.n_phi, spec.j1, spec.j2)
    # conj(f1)^T M conj(f2) as the conjugate of f1^T conj(M) f2, in place, so no frame is copied
    back = _sandwich(f1.swapaxes(1, 2), np.conj(mixed, out=mixed), f2.swapaxes(1, 2))
    return np.conj(back, out=back)


def _evaluated(state: ComBasisState, theta, phi) -> np.ndarray:
    """Amplitude table at (theta, phi) of a closed-form state: the kernel of
    its labels while unrotated, and once rotated its turned coefficients
    (:func:`_turned`) summed against every Y_lm of their band at the
    angles, the slots mixed and, in the helicity scheme, re-expressed in
    the frames at the angles (:func:`_fixed_to_helicity_slots`). Angles
    that fail :func:`_finite_angles` raise ValueError."""
    if state.rotation is None:
        return _label_table(state.spec, state.scheme, state.j, state.channel, state.component, theta, phi)
    theta, phi = _finite_angles(theta=theta, phi=phi)
    coeffs, mix = _turned(state, state.rotation)
    band = coeffs.shape[1] - 1
    rows = su2._harmonic_table(band, theta, phi)
    # the rows l^2 ... l^2 + 2l hold Y_lm for m = l ... -l, as [band - l : band + l + 1, l] does
    sums = sum(np.tensordot(rows[l * l : (l + 1) ** 2], coeffs[band - l : band + l + 1, l], axes=(0, 0))
               for l in range(band + 1))
    slots = (sums @ mix.T).reshape(sums.shape[:-1] + state.spec.spin_shape)
    return slots if state.scheme == "spin-orbit" else _fixed_to_helicity_slots(state.spec, theta, phi, slots)


def _sandwich(left, slots, right) -> np.ndarray:
    """left[n] @ slots[n] @ right[n]^T at every node n, the spin axes
    trailing: a sum of broadcast products, one per column of left, then
    one per column of right, so small spin matrices cost a few array
    operations rather than an einsum over every index at once."""
    inner = left[:, :, 0, None] * slots[:, None, 0, :]
    for c in range(1, left.shape[-1]):
        inner += left[:, :, c, None] * slots[:, None, c, :]
    out = inner[:, :, None, 0] * right[:, None, :, 0]
    for d in range(1, right.shape[-1]):
        out += inner[:, :, None, d] * right[:, None, :, d]
    return out


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _fit_tables(n_theta: int, n_phi: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid-only tables of :func:`_harmonic_fit` and
    :func:`_harmonic_synthesis` on the n_theta x n_phi grid up to the band
    L = top, once per size and band, read-only: the DFT matrix
    e^{-i m phi_k}, rows m = L ... -L, and the real polar table
    Y_lm(theta_i, 0) = N_lm P_l^m(cos theta_i) at [m, l, i] for m = 0 ... L
    (0 where l < m), one Legendre sweep at the polar nodes scaled in place.
    The fit reads them at the grid's band (:attr:`QuadratureGrid.band`); a
    band past _MAX_L raises InvalidOrbitalLabel before the sweep."""
    if top > _MAX_L:
        raise InvalidOrbitalLabel(
            f"a table on a grid with n_theta = {n_theta}, n_phi = {n_phi} is fit up to the band "
            f"L = min(n_theta - 1, (n_phi - 1) // 2) = {top}; the fit supports l <= {_MAX_L}")
    polar, azimuth = build_grid(n_theta, n_phi).axes
    dft = np.exp(-1j * np.arange(top, -top - 1, -1)[:, None] * azimuth)
    table = su2._legendre(top, np.cos(polar[:, 0]))
    table *= np.array([np.pad(_norms(l), (0, top - l)) for l in range(top + 1)])[:, :, None]
    for array in (dft, table):
        array.flags.writeable = False
    return dft, table.transpose(1, 0, 2)


def _harmonic_fit(grid: QuadratureGrid, table) -> np.ndarray:
    """Quadrature coefficients conj(Y) (w A) of a grid table A on every Y_lm
    with l <= L, the grid's band (:attr:`QuadratureGrid.band`), as one dense
    array [L - m, l, column] that holds 0 where l < |m|.

    Separated as in Driscoll and Healy, Adv. Appl. Math. 15, 202 (1994):
    Y_lm(theta, phi) = Y_lm(theta, 0) e^{i m phi} with Y_lm(theta, 0) real,
    so a DFT over phi per polar ring comes first, then a sum over the rings
    with the polar table, one batched matmul per sign of m, since
    Y_{l,-m}(theta, 0) = (-1)^m Y_lm(theta, 0); the (L+1)^2 x N table on
    the grid is never built.
    """
    top = grid.band
    dft, polar = _fit_tables(grid.n_theta, grid.n_phi, top)
    rings = grid.weights[:: grid.n_phi, None, None] * table.reshape(grid.n_theta, grid.n_phi, -1)
    # waves[L - m, i] = sum_k e^{-i m phi_k} (w A)[i, k], every ring in one matmul
    waves = (dft @ rings.transpose(1, 0, 2).reshape(grid.n_phi, -1)).reshape(len(dft), grid.n_theta, -1)
    coeffs = np.empty((len(dft), top + 1, waves.shape[-1]), dtype=complex)
    # the real table meets the waves' real and imaginary parts alike, as floats
    np.matmul(polar, waves[top::-1].view(float), out=coeffs[top::-1].view(float))
    # the orders m < 0 read the table of |m|, then odd |m| take the sign (-1)^m
    np.matmul(polar[1:], waves[top + 1 :].view(float), out=coeffs[top + 1 :].view(float))
    coeffs[top + 1 :: 2] *= -1.0
    return coeffs


def _harmonic_synthesis(grid: QuadratureGrid, coeffs) -> np.ndarray:
    """sum_lm c_lm Y_lm at the grid's nodes, as (nodes, columns), for
    coefficients laid out as :func:`_harmonic_fit`'s at the band their
    shape gives: the fit's transpose, then one inverse DFT for every ring.
    A band within the grid's slices the grid's own tables; one past it, or
    a grid past _MAX_L, reads tables at the band itself."""
    top, band = coeffs.shape[1] - 1, grid.band
    dft, polar = _fit_tables(grid.n_theta, grid.n_phi, band if top <= band <= _MAX_L else top)
    dft, polar = dft[len(polar) - 1 - top : len(polar) + top], polar[: top + 1, : top + 1]
    terms = coeffs.view(float)
    # sums[i, L - m] = sum_l Y_lm(theta_i, 0) c_lm, ring-major for the inverse DFT
    sums = np.empty((grid.n_theta, len(dft), terms.shape[-1]))
    orders, rows = sums.transpose(1, 0, 2), polar.transpose(0, 2, 1)
    np.matmul(rows, terms[top::-1], out=orders[top::-1])
    np.matmul(rows[1:], terms[top + 1 :], out=orders[top + 1 :])
    orders[top + 1 :: 2] *= -1.0
    rings = dft.conj().T @ sums.view(complex)
    return rings.reshape(grid.size, -1)


def _fixed_to_helicity_slots(spec, theta, phi, slots) -> np.ndarray:
    """Fixed-axis spin slots re-expressed in the helicity frames at (theta, phi).

    The inverse of :func:`convert_slots_to_canonical`'s map; broadcasts
    over the angles, with the spin axes of slots trailing.
    """
    f1, f2 = _helicity_frames(theta, phi, spec.j1, spec.j2)
    return np.einsum("...ca,...db,...cd->...ab", f1.conj(), f2.conj(), slots)


def apply_rotation(state: ComBasisState, u) -> ComBasisState:
    """Rotate a grid state.

    Node directions map forward under the rotation; the new table holds
    the state at the preimage nodes, and each particle's spin slots are
    mixed by its representation matrix. Every state rotates by one law
    (:func:`_rotated_table`): its harmonic coefficients in fixed-axis slots
    turn by D^l(u) and are summed on the grid's own nodes, the slots are
    mixed by the constant D^{j1}(u) x D^{j2}(u), and helicity slots are
    converted back with the frames at the nodes.

    A closed-form state records u @ state.rotation and turns its labels'
    exact coefficients (l <= j + j1 + j2) by that product, so it is exact
    on any grid and u then v equals v @ u bit for bit. A table is fit up to
    its grid's band L (:attr:`QuadratureGrid.band`), exact for tables
    band-limited to l <= L in fixed-axis slots.

    Only rotations are accepted: they preserve the fixed-s sphere the
    states live on. Anything outside SU(2) raises NotARotation. Y_lm stops
    at l = 85, so a table whose grid's band L passes 85 raises
    InvalidOrbitalLabel (:func:`_fit_tables`) before any harmonic is
    evaluated. A table holding NaN or an infinity raises ValueError, since
    the fit would spread it over every node.
    """
    u = require_su2(u)
    if state.closed_form:
        u = u if state.rotation is None else u @ state.rotation
        return dataclasses.replace(state, rotation=u, amplitudes=_rotated_table(state, u))
    # the fit's band check, before the finite one; the tables it builds are cached for the fit
    _fit_tables(state.grid.n_theta, state.grid.n_phi, state.grid.band)
    _require_finite(state.amplitudes)
    return dataclasses.replace(state, amplitudes=_rotated_table(state, u))


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
    amps = _fixed_axis_slots(state.grid, state.spec.j1, state.spec.j2, state.amplitudes)
    return dataclasses.replace(
        state, scheme="spin-orbit", amplitudes=amps, rotation=None, closed_form=False
    )


@dataclass(frozen=True, eq=False)
class DeltaProductState:
    """Product state localized at a single relative direction.

    coefficients[i1, i2] weights the pair with fixed-axis spin components
    (chi1, chi2), slot indices descending; the table must be normalized to
    sum |c|^2 = 1. The angles are tested as the rest-frame tables' are.
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
        _finite_angles(theta=theta, phi=phi)
        # a square past the float range reads inf, and "not <=" fails a NaN norm too
        with np.errstate(over="ignore"):
            norm2 = float(np.sum(np.abs(c) ** 2))
        if not abs(norm2 - 1.0) <= 1e-8:
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
        _require_finite(amps)
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
    spec is the pair the coefficients were taken for, which
    :func:`reconstruct` checks; only :func:`decompose_product_state` makes
    a Decomposition.
    """

    scheme: str
    spec: TwoParticleSpec
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
    The latter is taken from the tables' separation in phi
    (:func:`_separated`): one DFT of the weighted input over phi at every
    order chi - sigma, then a sum of each label's phi = 0 ring against
    its component's row of that spectrum.
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
    layout = _basis_layout(spec, scheme, j_max)
    _check_above_threshold(s, spec.s1, spec.s2)
    if isinstance(psi, DeltaProductState):
        slots = psi.coefficients
        if scheme == "helicity":
            slots = _fixed_to_helicity_slots(spec, psi.theta, psi.phi, slots)
        tables = np.empty((len(layout.labels),) + spec.spin_shape, dtype=complex)
        _label_tables(layout, psi.theta, psi.phi, tables)
        # each row's slots are one contiguous reduction, as np.sum of its table alone
        overlaps = np.sum(tables.conj() * slots, axis=(1, 2)).tolist()
        psi_norm2 = math.inf
    else:
        if psi.scheme != scheme:
            raise ValueError(
                f"grid state carries {psi.scheme!r} slots; cannot decompose in {scheme!r}"
            )
        grid = psi.grid
        rings, classes, waves = _separated(layout, grid)
        weighted = grid.weights[:, None, None] * psi.amplitudes
        weighted = weighted.reshape((grid.n_theta, grid.n_phi) + spec.spin_shape)
        # spectrum[c, t, a, b] = sum_k e^{-i (chi_c - sigma_ab) phi_k} (w psi)[t, k, a, b]
        spectrum = np.einsum("tkab,cabk->ctab", weighted, waves.conj())
        overlaps = np.einsum("ltab,ltab->l", rings.conj(), spectrum[classes]).tolist()
        psi_norm2 = psi.norm2()
    entries = [DecompositionEntry(*label, c) for label, c in zip(layout.labels, overlaps)]
    coeff_norm2 = float(sum(abs(e.coefficient) ** 2 for e in entries))
    residual = math.inf if math.isinf(psi_norm2) else psi_norm2 - coeff_norm2
    return Decomposition(
        scheme=scheme,
        spec=spec,
        s=float(s),
        j_max=j_max,
        entries=tuple(entries),
        psi_norm2=psi_norm2,
        coeff_norm2=coeff_norm2,
        truncation_residual=residual,
    )


def _separated(layout, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layout's grid tables, separated in phi.

    Returns the phi = 0 rings (labels, n_theta) + spin_shape, each label's
    index among the distinct components chi_c (ascending), and the waves
    e^{i (chi_c - sigma_ab) phi_k} as (components,) + spin_shape +
    (n_phi,), where sigma_ab is chi1 + chi2 for spin-orbit slots and
    lam1 - lam2 for helicity ones. The table of label i at slot (a, b) is
    rings[i, :, a, b] times waves[index[i], a, b] on the grid's nodes.
    """
    polar, azimuth = grid.axes
    rings = np.empty((len(layout.labels), grid.n_theta) + layout.spin_shape, dtype=complex)
    _label_tables(layout, polar, 0.0, rings[:, :, None])
    twice_chi = layout.twice_chi.tolist()
    chis = sorted(set(twice_chi))
    position = {chi: c for c, chi in enumerate(chis)}
    index = np.array([position[chi] for chi in twice_chi], dtype=int)
    first, second = (np.arange(n - 1, -n, -2) / 2.0 for n in layout.spin_shape)
    sigma = first[:, None] + (second if layout.scheme == "spin-orbit" else -second)[None, :]
    orders = (np.array(chis) / 2.0)[:, None, None] - sigma
    return rings, index, np.exp(1j * orders[..., None] * azimuth[0])


def reconstruct(decomposition: Decomposition, grid: QuadratureGrid,
                spec: TwoParticleSpec) -> GridProductState:
    """Sum coefficient times basis amplitude over all entries of a decomposition.

    The sum is taken on the phi = 0 rings (:func:`_separated`), class by
    class of components, and carried to the grid by one inverse DFT over
    phi. The spec's constituent spins must be those the decomposition was
    made for (ValueError naming both pairs otherwise).
    """
    made = decomposition.spec
    if (made.j1, made.j2) != (spec.j1, spec.j2):
        raise ValueError(
            f"decomposition was made for spins ({made.j1}, {made.j2}); "
            f"the spec has ({spec.j1}, {spec.j2})"
        )
    layout = _basis_layout(made, decomposition.scheme, decomposition.j_max)
    rings, classes, waves = _separated(layout, grid)
    coefficients = np.array([e.coefficient for e in decomposition.entries], dtype=complex)
    # the coefficient-weighted rings summed per class of components, then one inverse DFT
    gather = (classes == np.arange(waves.shape[0])[:, None]) * coefficients
    summed = np.tensordot(gather, rings, axes=1)
    total = np.einsum("ctab,cabk->tkab", summed, waves).reshape((grid.size,) + spec.spin_shape)
    return GridProductState(grid=grid, spec=spec, amplitudes=total,
                            scheme=decomposition.scheme)


def state_to_json(state: ComBasisState) -> str:
    """Serialize a grid state.

    Schema: {scheme, s, j, eta, component, grid: {n_theta, n_phi},
    amplitudes: [[re, im], ...]} with amplitudes flattened in node-major,
    chi1-then-chi2-minor order (C-order raveling of the stored table).
    eta is ``channel.eta``: (l, s) for spin-orbit, (lambda1, lambda2) for
    helicity channels. Half-integers are stored as exact binary floats, so
    the text round-trips bit-exactly.

    The one scheme field names both the channel family and the slot frame,
    so a state whose channel is of another family raises ValueError, as
    does a table holding NaN or an infinity, which JSON cannot hold.
    """
    if not isinstance(state.channel, _CHANNEL_TYPES[state.scheme]):
        raise ValueError(f"a {state.scheme!r} state with the channel ({state.channel.label()}) "
                         "has no JSON form; convert_slots_to_canonical makes such states")
    _require_finite(state.amplitudes)
    flat = state.amplitudes.ravel()
    payload = {
        "scheme": state.scheme,
        "s": float(state.s),
        "j": float(state.j),
        "eta": [float(x) for x in state.channel.eta],
        "component": float(state.component),
        "grid": {"n_theta": state.grid.n_theta, "n_phi": state.grid.n_phi},
        "amplitudes": np.stack([flat.real, flat.imag], axis=-1).tolist(),
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
    interpolation. Malformed JSON, a missing or ill-typed field, and labels
    that fail :func:`_check_label` raise ValueError.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    scheme = _check_scheme(_json_field(data, "scheme", str))
    sizes = _grid_sizes(_json_field(data, "grid.n_theta", int), _json_field(data, "grid.n_phi", int))
    eta = _json_field(data, "eta", list)
    if len(eta) != 2:
        raise ValueError(f"state JSON field 'eta' must hold two labels, got {len(eta)}")
    channel = _CHANNEL_TYPES[scheme](*(_json_half("eta", x) for x in eta))
    j, chi = (_json_half(name, _json_field(data, name)) for name in ("j", "component"))
    label = _check_label(spec, scheme, j, channel, chi).labels[0]
    s = float(_json_field(data, "s"))
    pairs = _json_field(data, "amplitudes", list)
    try:
        # a pair holding a boolean is skipped here, and so fails the count below
        flat = np.array([complex(re, im) for re, im in pairs
                         if type(re) is not bool and type(im) is not bool], dtype=complex)
    except (TypeError, ValueError):
        flat = None
    if flat is None or flat.size != len(pairs) or not np.isfinite(flat).all():
        raise ValueError("state JSON field 'amplitudes' must hold [re, im] pairs of finite numbers")
    # the count is checked before the grid is built, whose cost the sizes alone set
    want = (math.prod(sizes),) + spec.spin_shape
    if flat.size != math.prod(want):
        raise ValueError(
            f"amplitude list has {flat.size} entries; grid and spins require {math.prod(want)}"
        )
    grid = build_grid(*sizes)
    norm = com_normalization(s, spec.s1, spec.s2)
    return ComBasisState(grid, spec, s, scheme, *label, flat.reshape(want), norm)
