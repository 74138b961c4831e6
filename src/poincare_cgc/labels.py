"""Basis labels and the kernel that evaluates their closed-form tables.

A partial-wave basis label is (j, channel, chi): a total spin, an
orbital/spin or helicity channel that couples to it, and a component.
:func:`_label_tables` evaluates the angular tables of a list of labels
at given angles, each equal bit for bit to its per-label closed form
(:func:`poincare_cgc.cgc.spin_orbit_com_table`, and the conjugate of
:func:`poincare_cgc.cgc.helicity_com_table` for helicity basis states),
from a cached layout of the labels' integer data (:class:`_Layout`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cgc import TwoParticleSpec, _spin_orbit_cells, coupling_channels
from .halfint import HalfInt, components
from .su2 import _MAX_J, _d_entry_slots, _d_sum, _harmonic_table


def _check_top_spin(spec: TwoParticleSpec, j: HalfInt, scheme: str, given: str) -> None:
    """ValueError unless the largest spin that total spin j evaluates (j
    itself for helicity d^j, l = j + j1 + j2 for spin-orbit) is within the
    supported maximum; given names the input that asked for j."""
    top = j + (spec.j1 + spec.j2 if scheme == "spin-orbit" else 0)
    if top > _MAX_J:
        raise ValueError(
            f"{given} needs spin {top} in the {scheme} scheme, above the supported maximum {_MAX_J}"
        )


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
    return [
        (j, channel, chi)
        for j in j_values
        for channel in coupling_channels(spec, j, scheme)
        for chi in components(j)
    ]


@dataclass(frozen=True, eq=False)
class _Layout:
    """Checked labels (j, channel, chi) as :func:`_label_tables` reads them.

    Each populated spin slot of a label is a cell, cells[k] = (label, a, b),
    ordered by label: label n's are cells first[n]:first[n + 1]. A
    spin-orbit cell is weights[k] (from :func:`poincare_cgc.cgc._spin_orbit_cells`)
    times row rows[k], Y_{l l3}, of the harmonic table up to l_max. A
    helicity label has one cell, its channel's slot (lam1, lam2), with
    spins[k] = (2j, 2chi, 2mu), mu = lam1 - lam2, and d_slots describing
    the cells' d^j_{chi mu} (:func:`poincare_cgc.su2._d_entry_slots`).
    twice_chi holds 2chi per label. Every array is read-only.
    """

    scheme: str
    spin_shape: tuple
    labels: tuple
    twice_chi: np.ndarray
    cells: np.ndarray
    first: np.ndarray
    l_max: int = 0
    rows: np.ndarray | None = None
    weights: np.ndarray | None = None
    spins: np.ndarray | None = None
    d_slots: tuple = ()


def _label_layout(spec, scheme, labels) -> _Layout:
    """The layout of checked labels (:func:`poincare_cgc.states._check_label`)."""
    j1, j2 = spec.j1, spec.j2
    if scheme == "spin-orbit":
        # the layout keeps the cells, so the per-label cache is not filled with them too
        cells_of = _spin_orbit_cells.__wrapped__
        found = [(n, a, b, int(c.l) ** 2 + row, weight) for n, (j, c, chi) in enumerate(labels)
                 for a, b, row, weight in cells_of(j1, j2, j, c.l, c.s, chi)]
        fields = dict(rows=np.array([f[3] for f in found], dtype=int),
                      weights=np.array([f[4] for f in found], dtype=complex),
                      l_max=max((int(c.l) for _, c, _ in labels), default=0))
    else:
        found = [(n, (j1.twice - c.lam1.twice) // 2, (j2.twice - c.lam2.twice) // 2)
                 for n, (_, c, _) in enumerate(labels)]
        spins = [(j.twice, chi.twice, c.mu.twice) for j, c, chi in labels]
        fields = dict(spins=np.array(spins, dtype=int).reshape(-1, 3),
                      d_slots=_d_entry_slots(spins))
    cells = np.array([f[:3] for f in found], dtype=int).reshape(-1, 3)
    fields.update(twice_chi=np.array([chi.twice for _, _, chi in labels], dtype=int), cells=cells,
                  first=np.searchsorted(cells[:, 0], np.arange(len(labels) + 1)))
    for array in [*fields.values(), *fields.get("d_slots", ())]:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return _Layout(scheme, spec.spin_shape, tuple(labels), **fields)


# layouts kept by _basis_layout: both schemes of a few pairs and j_max values
_LAYOUT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _basis_layout(spec, scheme, j_max: HalfInt) -> _Layout:
    """The layout of every basis label with j <= j_max (:func:`_basis_labels`),
    once per (spec, scheme, j_max); shared, so read-only. A rejected j_max
    raises on every call, as nothing is cached for it."""
    return _label_layout(spec, scheme, _basis_labels(spec, j_max, scheme))


def _label_tables(layout, theta, phi, out=None):
    """Each label's angular table at (theta, phi), of the shape
    np.broadcast(theta, phi).shape + spin_shape, written into out[i].

    Without out, each label gets its own array, made just before it is
    written, and the list is returned; with out, a stacked array, out is
    overwritten and returned. Each distinct factor is evaluated once
    (:func:`_cell_operands`), and each cell is formed from its operands
    by the products of the closed form (spin_orbit_com_table,
    _helicity_wavefunction), in the same order and with operands of the
    same shapes and memory order, so every table equals the closed form
    bit for bit. Stacked tables at array angles (the phi = 0 rings) take
    every cell in one product, the operands gathered along a leading cell
    axis. Otherwise the cells are taken one by one: a grid table's
    products stay as large as the table, and at scalar angles they stay
    numpy's 0-d arithmetic, which rounds complex products apart from its
    array loops.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    if not layout.labels:
        return [] if out is None else out
    stacked = out is not None and bool(shape)
    operands, value, blank = _cell_operands(layout, theta, phi, shape, stacked)
    if stacked:
        out[...] = blank
        gathered = [table[index] for table, index in operands]
        # the operands broadcast against each other behind the cell axis
        gathered = [x.reshape(x.shape[:1] + (1,) * (len(shape) + 1 - x.ndim) + x.shape[1:])
                    for x in gathered]
        label, a, b = layout.cells.T
        out[label, ..., a, b] = value(*gathered)
        return out
    if out is None:
        out = [None] * len(layout.labels)
    first, slots = layout.first.tolist(), layout.cells[:, 1:].tolist()
    operands = [(table, index.tolist()) for table, index in operands]
    for n in range(len(out)):
        if out[n] is None:
            out[n] = np.empty(shape + layout.spin_shape, dtype=complex)
        table = out[n]
        table[...] = blank
        for k in range(first[n], first[n + 1]):
            a, b = slots[k]
            table[..., a, b] = value(*[rows[index[k]] for rows, index in operands])
    return out


# what a helicity table holds outside its slot: conj(0 + 0j)
_BLANK_HELICITY = complex(0.0, -0.0)


def _cell_operands(layout, theta, phi, shape, stacked) -> tuple[list, Callable, complex]:
    """(operands, value, blank) of :func:`_label_tables` at float angles.

    operands lists (table, index) pairs: the table holds one evaluated
    factor per row, and cell k reads its row index[k]. value maps a
    cell's operands to its slot; blank fills the other slots.
    Spin-orbit: the cell weight times Y_{l l3}, a row of one harmonic
    table, which cells taken one by one read through :class:`_ReadRows`.
    Helicity: conj(left d^j_{chi mu}(theta) e^{i mu phi} + 0), with
    left = sqrt((2j+1)/4pi) e^{-i chi phi} once per (j, chi), each wave
    once per order and the cells' d^j entries in one sum.
    """
    own = np.arange(len(layout.cells))
    if layout.scheme == "spin-orbit":
        rows = _harmonic_table(layout.l_max, theta, phi)
        if not stacked:
            rows = _ReadRows(rows, np.bincount(layout.rows, minlength=len(rows)).tolist())
        return [(layout.weights, own), (rows, layout.rows)], operator.mul, 0.0
    spins = layout.spins.tolist()
    # each distinct (2j, 2chi) and 2mu, numbered in order of first use
    pairs, mus = {}, {}
    left = np.array([pairs.setdefault((tj, tchi), len(pairs)) for tj, tchi, _ in spins])
    wave = np.array([mus.setdefault(tmu, len(mus)) for _, _, tmu in spins])
    chi_waves = {tchi: np.exp(-1j * (tchi / 2.0) * phi) for _, tchi in pairs}
    lefts = [np.sqrt((tj + 1.0) / (4.0 * np.pi)) * chi_waves[tchi] for tj, tchi in pairs]
    waves = [np.exp(1j * (tmu / 2.0) * phi) for tmu in mus]
    # the cells' entries of d^j leading, so each is as contiguous as _d_entry's
    entries = np.moveaxis(_d_sum(layout.d_slots, theta), -1, 0).copy()
    zero = np.zeros(shape)

    def value(left, entry, wave):
        return np.conj(left * entry * wave + zero)

    tables = [np.array(lefts), entries, np.array(waves)]
    return list(zip(tables, (left, own, wave))), value, _BLANK_HELICITY


class _ReadRows:
    """The rows of a table, each dropped after its last read.

    reads[r] is the number of reads of row r; the rows are copies, so a
    grid basis, whose labels read the harmonic rows in order of degree,
    does not keep the whole table while its last tables are written.
    """

    def __init__(self, table, reads):
        self._rows = [row.copy() for row in table]
        self._reads = reads

    def __getitem__(self, r):
        row = self._rows[r]
        self._reads[r] -= 1
        if not self._reads[r]:
            self._rows[r] = None
        return row
