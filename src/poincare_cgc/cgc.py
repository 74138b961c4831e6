"""Two-particle channel enumeration and coupling amplitudes.

A pair of massive irreps (mass squared s_i, spin j_i) is coupled to a
total spin j either through an orbital/spin channel (l, s) or through a
helicity channel (lambda1, lambda2). The center-of-momentum amplitudes
here are the matrix elements projecting a two-particle plane-wave pair
at relative direction (theta, phi) onto the coupled state; general-frame
amplitudes follow from them by Wigner rotations of each spin slot.

A basis label is (j, channel, chi): a total spin, a channel that couples
to it, and a component. Every closed-form table, of one label or many,
comes from one kernel, :func:`_label_tables`, reading a cached layout.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import BelowThreshold, InvalidChannel, MasslessUnsupported
from .halfint import HalfInt, compatible, component_index, components, hrange, triangle_rule
from .lorentz import (
    FourMomentum,
    SpinorTransform,
    polar_angles,
    spinor_to_lorentz,
    standard_boost,
    wigner_rotation,
)
from .su2 import (_MAX_J, _cg_block, _check_j, _d_entry_slots, _d_sum, _finite_angles, _harmonic_table,
                  _slot_matrix, _wigner_D, euler_zyz)

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
    return _channels(spec.j1, spec.j2, HalfInt.of(j), _check_scheme(scheme))


def coupling_channels(spec: TwoParticleSpec, j, scheme: str = "spin-orbit") -> list:
    """Channels whose coupling amplitude is not identically zero."""
    return _coupling_channels(spec.j1, spec.j2, HalfInt.of(j), _check_scheme(scheme))


def _channels(j1, j2, j: HalfInt, scheme: str) -> list:
    """:func:`enumerate_channels` of constituent spins j1 and j2."""
    if scheme == "helicity":
        return [HelicityChannel(l1, l2) for l1 in components(j1) for l2 in components(j2)]
    out = []
    for s in hrange(abs(j1 - j2), j1 + j2):
        lo, hi = abs(j - s), j + s
        if not lo.is_integer:
            continue
        out.extend(SpinOrbitChannel(l, s) for l in hrange(lo, hi))
    return out


def _coupling_channels(j1, j2, j: HalfInt, scheme: str) -> list:
    """:func:`coupling_channels` of constituent spins j1 and j2."""
    return [c for c in _channels(j1, j2, j, scheme) if scheme != "helicity" or abs(c.mu) <= j]


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


def spin_orbit_com_table(
    spec: TwoParticleSpec, j, channel: SpinOrbitChannel, chi, theta, phi
) -> np.ndarray:
    """Rest-frame coupling amplitudes of an orbital/spin channel.

    Returns the array A[chi1, chi2] over descending constituent spin
    components, broadcast over theta/phi with the spin axes trailing.
    The amplitude is

        <j1 chi1 j2 chi2 | s s3> <l l3 s s3 | j chi> (-1)**chi Y_{l l3}

    with s3 = chi1 + chi2 and l3 = chi - s3. Angles that fail
    :func:`_finite_angles`, and labels that fail :func:`_one_label_layout`, raise.
    """
    return _label_table(spec, "spin-orbit", j, channel, chi, theta, phi)


def _label_table(spec, scheme, j, channel, chi, theta, phi) -> np.ndarray:
    """The kernel's table of one label (:func:`_one_label_layout`) at
    angles that pass :func:`_finite_angles`."""
    theta, phi = _finite_angles(theta=theta, phi=phi)
    return _label_tables(_one_label_layout(spec.j1, spec.j2, scheme, j, channel, chi), theta, phi)[0]


def _spin_orbit_cells(j1, j2, j, l, s, chi) -> tuple:
    """Nonzero slots (a, b, l - l3, CG * CG * (-1)**chi) of an orbital/spin table.

    l - l3 is the row of Y_{l l3} among the degree-l rows of the harmonic
    table; both coefficients are read from blocks (:func:`su2._cg_block`).
    chi comes checked; a channel not coupling to j raises, and so does the
    first of j1, j2, s, l, j above the supported maximum.
    """
    if not (triangle_rule(j1, j2, s) and triangle_rule(l, s, j)):
        raise InvalidChannel(f"channel (l={l},s={s}) does not couple to spin {j}")
    tj1, tj2, ts, tl, tj = (_check_j(spin).twice for spin in (j1, j2, s, l, j))
    spin, orbit = _cg_block(tj1, tj2, ts).tolist(), _cg_block(tl, ts, tj).tolist()
    phase = _minus_one_to(chi)
    cells = []
    for a, row in enumerate(spin):
        for b, spin_weight in enumerate(row):
            ts3 = tj1 + tj2 - 2 * (a + b)
            tl3 = chi.twice - ts3
            if abs(ts3) > ts or abs(tl3) > tl:
                continue
            weight = spin_weight * orbit[(tl - tl3) // 2][(ts - ts3) // 2]
            if weight == 0.0:
                continue
            cells.append((a, b, (tl - tl3) // 2, weight * phase))
    return tuple(cells)


def _check_top_spin(spec: TwoParticleSpec, j: HalfInt, scheme: str, given: str) -> None:
    """ValueError unless the largest spin that total spin j evaluates (j
    itself for helicity d^j, l = j + j1 + j2 for spin-orbit) is within the
    supported maximum; given names the input that asked for j."""
    top = j + (spec.j1 + spec.j2 if scheme == "spin-orbit" else 0)
    if top > _MAX_J:
        raise ValueError(
            f"{given} needs spin {top} in the {scheme} scheme, above the supported maximum {_MAX_J}"
        )


def _spin_labels(j1, j2, j: HalfInt, scheme: str) -> list[tuple]:
    """(j, channel, chi) of every basis state of total spin j of constituent
    spins j1 and j2 whose table is supported, in basis order: spin-orbit
    channels with l or s above _MAX_J, whose tables raise, are left out
    (below the top spin, :func:`_check_top_spin`, there are none)."""
    return [(j, c, chi) for c in _coupling_channels(j1, j2, j, scheme)
            if scheme == "helicity" or max(c.l, c.s) <= _MAX_J for chi in components(j)]


def _basis_labels(spec: TwoParticleSpec, j_max: HalfInt, scheme: str) -> list[tuple]:
    """(j, channel, chi) of every basis state with j <= j_max, in basis order.

    Rejects a negative j_max, and one whose largest j fails
    :func:`_check_top_spin`, before any amplitude is computed.
    """
    if j_max < HalfInt(0):
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    start = (spec.j1.twice + spec.j2.twice) % 2
    j_values = [HalfInt(t) for t in range(start, j_max.twice + 1, 2)]
    if j_values:
        _check_top_spin(spec, j_values[-1], scheme, f"j_max={j_max}")
    return [label for j in j_values for label in _spin_labels(spec.j1, spec.j2, j, scheme)]


@dataclass(frozen=True, eq=False)
class _Layout:
    """Checked labels (j, channel, chi) as :func:`_label_tables` reads them.

    Each populated spin slot of a label is a cell, cells[k] = (label, a, b),
    ordered by label: label n's are cells first[n]:first[n + 1]. A
    spin-orbit cell is weights[k] (from :func:`_spin_orbit_cells`) times
    row rows[k], Y_{l l3}, of the harmonic table of l_min ... l_max. A helicity
    label has one cell, its channel's slot (lam1, lam2), unless |mu| > j,
    with mu = lam1 - lam2, d_slots describing the cells' d^j_{chi mu}
    (:func:`su2._d_entry_slots`), and pairs and mus each distinct (2j, 2chi)
    and 2mu in order of first use, cell k reading left[k] and wave[k].
    twice_chi holds 2chi per label. block_row is a one-label layout's row
    among the labels of its j (:func:`_spin_labels`), None if |mu| > j.
    Every array is read-only.
    """

    scheme: str
    spin_shape: tuple
    labels: tuple
    twice_chi: np.ndarray
    cells: np.ndarray
    first: np.ndarray
    l_min: int = 0
    l_max: int = 0
    rows: np.ndarray | None = None
    weights: np.ndarray | None = None
    d_slots: tuple = ()
    pairs: tuple = ()
    mus: tuple = ()
    left: np.ndarray | None = None
    wave: np.ndarray | None = None
    block_row: int | None = None


def _label_layout(j1, j2, scheme, labels) -> _Layout:
    """The layout of checked labels (:func:`poincare_cgc.states._check_label`,
    :func:`_one_label_layout`) of constituent spins j1 and j2."""
    if scheme == "spin-orbit":
        degrees = [int(c.l) for _, c, _ in labels]
        l_min, l_max = min(degrees, default=0), max(degrees, default=0)
        found = [(n, a, b, int(c.l) ** 2 - l_min**2 + row, weight) for n, (j, c, chi) in enumerate(labels)
                 for a, b, row, weight in _spin_orbit_cells(j1, j2, j, c.l, c.s, chi)]
        fields = dict(rows=np.array([f[3] for f in found], dtype=int),
                      weights=np.array([f[4] for f in found], dtype=complex), l_min=l_min, l_max=l_max)
    else:
        found = [(n, (j1.twice - c.lam1.twice) // 2, (j2.twice - c.lam2.twice) // 2)
                 for n, (j, c, _) in enumerate(labels) if abs(c.mu) <= j]
        spins = [(j.twice, chi.twice, c.mu.twice) for j, c, chi in labels if abs(c.mu) <= j]
        pairs, mus = {}, {}
        left = [pairs.setdefault((tj, tchi), len(pairs)) for tj, tchi, _ in spins]
        wave = [mus.setdefault(tmu, len(mus)) for _, _, tmu in spins]
        fields = dict(d_slots=_d_entry_slots(spins), pairs=tuple(pairs), mus=tuple(mus),
                      left=np.array(left, dtype=int), wave=np.array(wave, dtype=int))
    cells = np.array([f[:3] for f in found], dtype=int).reshape(-1, 3)
    fields.update(twice_chi=np.array([chi.twice for _, _, chi in labels], dtype=int), cells=cells,
                  first=np.searchsorted(cells[:, 0], np.arange(len(labels) + 1)))
    for array in [*fields.values(), *fields.get("d_slots", ())]:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return _Layout(scheme, (j1.twice + 1, j2.twice + 1), tuple(labels), **fields)


# layouts kept by _basis_layout: both schemes of a few pairs and j_max values
_LAYOUT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _basis_layout(spec, scheme, j_max: HalfInt) -> _Layout:
    """The layout of every basis label with j <= j_max (:func:`_basis_labels`),
    once per (spec, scheme, j_max); shared, so read-only. A rejected j_max
    raises on every call, as nothing is cached for it."""
    return _label_layout(spec.j1, spec.j2, scheme, _basis_labels(spec, j_max, scheme))


@functools.cache
def _spin_layout(j1, j2, scheme, j: HalfInt) -> _Layout:
    """The layout of the basis labels of a checked total spin j
    (:func:`_spin_labels`), memoised on the spins and j; read-only."""
    return _label_layout(j1, j2, scheme, _spin_labels(j1, j2, j, scheme))


@functools.cache
def _one_label_layout(j1, j2, scheme, j, channel, chi) -> _Layout:
    """The layout of one label of constituent spins j1 and j2, checked: chi
    a component of j (ValueError); a spin-orbit channel that couples to j
    (:func:`_spin_orbit_cells`); a helicity channel's lam1 and lam2
    components of j1 and j2 (InvalidChannel) and, unless |mu| > j, where
    the table is zero, mu a component of a supported j (ValueError).
    Memoised on the spins and the label; a label that raises is not cached."""
    j, chi = HalfInt.of(j), HalfInt.of(chi)
    if not compatible(j, chi):
        raise ValueError(f"component {chi} is not valid for spin {j}")
    if scheme == "helicity":
        if not (compatible(j1, channel.lam1) and compatible(j2, channel.lam2)):
            raise InvalidChannel(f"channel ({channel.label()}) needs components of spins {j1} and {j2}")
        if abs(channel.mu) <= j:
            component_index(j, channel.mu)
            _check_j(j)
    layout = _label_layout(j1, j2, scheme, ((j, channel, chi),))
    label, labels = layout.labels[0], _spin_labels(j1, j2, j, scheme)
    return replace(layout, block_row=labels.index(label) if label in labels else None)


def _label_tables(layout, theta, phi, out=None):
    """Each label's angular table at (theta, phi), of the shape
    np.broadcast(theta, phi).shape + spin_shape, written into out[i].

    out is a stacked array, overwritten and returned; without it, one
    such block is made once the operands are evaluated, so a basis takes
    one allocation, not one per label. Each distinct factor is evaluated
    once (:func:`_cell_operands`). A caller's block at array angles (the
    phi = 0 rings) takes every cell in one product, the operands gathered
    along a leading cell axis. Otherwise the cells are taken one by one:
    a grid table's products stay as large as the table, and at scalar
    angles they stay numpy's 0-d arithmetic, which rounds complex products
    apart from its array loops. Either way each cell is formed from
    operands of the same shapes and memory order, so a label's table has
    the same bytes in every block, of one label or of many.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    one_product = out is not None and bool(shape)
    operands, value = _cell_operands(layout, theta, phi, shape) if len(layout.cells) else ([], None)
    if out is None:
        out = np.empty((len(layout.labels),) + shape + layout.spin_shape, dtype=complex)
    out[...] = _BLANK[layout.scheme]
    if value is None:  # no cells: no labels, or only helicity channels with |mu| > j
        return out
    if one_product:
        gathered = [table[index] for table, index in operands]
        # the operands broadcast against each other behind the cell axis
        gathered = [x.reshape(x.shape[:1] + (1,) * (len(shape) + 1 - x.ndim) + x.shape[1:])
                    for x in gathered]
        label, a, b = layout.cells.T
        out[label, ..., a, b] = value(*gathered)
        return out
    first, slots = layout.first.tolist(), layout.cells[:, 1:].tolist()
    operands = [(table, index.tolist()) for table, index in operands]
    for n, table in enumerate(out):
        for k in range(first[n], first[n + 1]):
            a, b = slots[k]
            table[..., a, b] = value(*[rows[index[k]] for rows, index in operands])
    return out


# what a table holds outside its cells: a helicity table's is conj(0 + 0j)
_BLANK = {"spin-orbit": 0.0, "helicity": complex(0.0, -0.0)}


def _cell_operands(layout, theta, phi, shape) -> tuple[list, Callable]:
    """(operands, value) of :func:`_label_tables` at float angles, for a layout with cells.

    operands lists (table, index) pairs: the table holds one evaluated
    factor per row, and cell k reads its row index[k]. value maps a
    cell's operands to its slot.
    Spin-orbit: the cell weight times Y_{l l3}, a row of one harmonic
    table.
    Helicity: conj(left d^j_{chi mu}(theta) e^{i mu phi} + 0), with
    left = sqrt((2j+1)/4pi) e^{-i chi phi} once per (j, chi), each wave
    once per order and the cells' d^j entries in one sum: the basis
    state's wavefunction, the conjugate of :func:`helicity_com_table`.
    """
    own = np.arange(len(layout.cells))
    if layout.scheme == "spin-orbit":
        rows = _harmonic_table(layout.l_max, theta, phi, layout.l_min)
        return [(layout.weights, own), (rows, layout.rows)], operator.mul
    chi_waves = {tchi: np.exp(-1j * (tchi / 2.0) * phi) for _, tchi in layout.pairs}
    lefts = [np.sqrt((tj + 1.0) / (4.0 * np.pi)) * chi_waves[tchi] for tj, tchi in layout.pairs]
    waves = [np.exp(1j * (tmu / 2.0) * phi) for tmu in layout.mus]
    # the cells' entries of d^j leading, so each is contiguous, as an entry summed alone is
    entries = np.moveaxis(_d_sum(layout.d_slots, theta), -1, 0).copy()
    zero = np.zeros(shape)

    def value(left, entry, wave):
        return np.conj(left * entry * wave + zero)

    tables = [np.array(lefts), entries, np.array(waves)]
    return list(zip(tables, (layout.left, own, layout.wave))), value


def _spin_tables(spec, scheme, j: HalfInt, theta, phi) -> tuple[tuple, np.ndarray]:
    """The basis labels of a checked total spin j, and the block of their
    rest-frame tables (:func:`spin_orbit_com_table`, :func:`helicity_com_table`)
    at angles that pass :func:`_finite_angles`, from one kernel call."""
    layout = _spin_layout(spec.j1, spec.j2, scheme, j)
    block = _label_tables(layout, *_finite_angles(theta=theta, phi=phi))
    return layout.labels, block.conj() if scheme == "helicity" else block


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
    with mu = lam1 - lam2; identically zero when |mu| > j. The channel's
    own slot of :func:`helicity_com_table`, with its checks.
    """
    table = _label_table(spec, "helicity", j, channel, chi, theta, phi)
    slot = component_index(spec.j1, channel.lam1), component_index(spec.j2, channel.lam2)
    # the kernel holds the conjugate; conj of a 0-d slot is a scalar
    return np.conj(table[(...,) + slot])


def helicity_com_table(
    spec: TwoParticleSpec, j, channel: HelicityChannel, chi, theta, phi
) -> np.ndarray:
    """Rest-frame helicity amplitudes as an array over helicity slots.

    Same layout as :func:`spin_orbit_com_table` but the trailing axes
    index the constituent helicities (descending); only the slot at the
    channel's (lam1, lam2) is populated. Bad angles and labels raise alike.
    """
    return _label_table(spec, "helicity", j, channel, chi, theta, phi).conj()


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
    """Per-frame part of a general-frame table: (theta, phi, D^{j1} x D^{j2},
    blocks).

    key is the exact bytes of (E1, p1, E2, p2), so frames are told apart
    bit for bit (0.0 and -0.0 included). The pair is checked once per
    frame: above threshold in :func:`relative_direction`, then on the mass
    shell of spec; a bad pair raises on every call, as nothing is cached
    for it. theta and phi are the polar angles of the rest-frame relative
    direction; the Kronecker matrix (:func:`su2._slot_matrix`) turns the
    raveled rest-frame spin slots to the frame of the momenta; shared, so read-only.
    blocks, filled by :func:`_angular_general`, keeps the frame's rest-frame
    tables, so they go with it when it is evicted.
    """
    pair = FourMomentum.from_array(np.frombuffer(key, dtype=float).reshape(2, 4))
    p1, p2 = pair[0], pair[1]
    theta, phi = polar_angles(relative_direction(p1, p2, convention))
    for name, want, got in (("first", spec.s1, p1.mass2), ("second", spec.s2, p2.mass2)):
        if abs(want - got) > 1e-6 * max(1.0, abs(want)):
            raise ValueError(f"{name} momentum is off shell for the pair spec: {got} vs {want}")
    w = inverse_com_wigner(p1 + p2, pair, convention).matrix
    kron = _slot_matrix(spec.j1, spec.j2, euler_zyz(w))
    kron.flags.writeable = False
    return theta, phi, kron, {}


def _angular_general(spec, scheme, j, channel, chi, p1, p2):
    """A general-frame table: the label's rest-frame table at the frame's
    angles, its raveled spin slots turned by the frame's Kronecker matrix.

    The rest-frame table is the label's block_row (:func:`_one_label_layout`)
    of the frame's read-only block of its j, kept under 2j and made on the
    first table of that j (:func:`_spin_tables`); a helicity channel with
    |mu| > j has no row, and a zero table.
    """
    convention = "canonical" if scheme == "spin-orbit" else "helicity"
    key = np.concatenate((p1.as_array(), p2.as_array())).tobytes()
    theta, phi, kron, blocks = _frame(spec, convention, key)
    layout = _one_label_layout(spec.j1, spec.j2, scheme, j, channel, chi)
    twice_j, n = layout.labels[0][0].twice, layout.block_row
    if n is not None and twice_j not in blocks:
        blocks[twice_j] = _spin_tables(spec, scheme, HalfInt(twice_j), theta, phi)[1]
        blocks[twice_j].flags.writeable = False
    row = np.zeros(spec.spin_shape, dtype=complex) if n is None else blocks[twice_j][n]
    return (kron @ row.ravel()).reshape(spec.spin_shape)


def spin_orbit_general_table(
    spec: TwoParticleSpec, j, channel: SpinOrbitChannel, chi, p1: FourMomentum, p2: FourMomentum
) -> np.ndarray:
    """Coupling amplitudes of an orbital/spin channel in a general frame.

    chi labels the coupled spin component along the rest-frame z axis
    reached by the inverse canonical boost of p1 + p2. The returned array
    runs over the constituents' canonical spin components in the frame
    where p1 and p2 are given.
    """
    return _angular_general(spec, "spin-orbit", j, channel, chi, p1, p2)


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
    return _angular_general(spec, "helicity", j, channel, chi, p1, p2)


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
