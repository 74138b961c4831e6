"""SU(2) representation matrices, Clebsch-Gordan coefficients and
spherical harmonics in the Condon-Shortley convention.

Representation rows and columns are ordered by descending weight,
m = +j, j-1, ..., -j, matching :func:`poincare_cgc.halfint.components`.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import lpmv

from .errors import InvalidOrbitalLabel, NotARotation
from .halfint import HalfInt, compatible, components, triangle_rule
from .lorentz import _as_matrix, _require, _rotation_matrix, require_su2

_MAX_J = HalfInt(20)


@functools.cache
def _fact(n) -> float:
    """n! as a float: exact through 22!, correctly rounded beyond; a
    negative n raises ValueError."""
    return float(math.factorial(n))


def _check_j(j) -> HalfInt:
    j = HalfInt.of(j)
    if j < HalfInt(0):
        raise ValueError(f"spin must be nonnegative, got {j}")
    if j > _MAX_J:
        raise ValueError(f"spin {j} exceeds the supported maximum {_MAX_J}")
    return j


@functools.cache
def _d_terms(tj, tmp, tm) -> tuple:
    """The factorial sum of d^j_{m' m}: (pref, terms), each term (e1, e2,
    sign, den) standing for sign * c**e1 * s**e2 / den, with c, s =
    cos(beta/2), sin(beta/2). tj, tmp, tm are twice j, m', m as ints."""
    jpm, jmm = (tj + tm) // 2, (tj - tm) // 2
    jpmp, jmmp = (tj + tmp) // 2, (tj - tmp) // 2
    dm = (tmp - tm) // 2
    pref = np.sqrt(_fact(jpmp) * _fact(jmmp) * _fact(jpm) * _fact(jmm))
    terms = tuple(
        (jpm + jmmp - 2 * k, dm + 2 * k, (-1.0) ** (dm + k),
         _fact(jpm - k) * _fact(k) * _fact(dm + k) * _fact(jmmp - k))
        for k in range(max(0, -dm), min(jpm, jmmp) + 1)
    )
    return pref, terms


@functools.cache
def _d_slots(tj) -> tuple:
    """:func:`_d_terms` of every entry of d^j as arrays (pref, e1, e2, sign,
    den): the entry axes (m', m) trail, and a leading slot axis holds each
    entry's terms in order. Slots past an entry's last term have sign 0."""
    n = tj + 1
    e1, e2 = np.zeros((n, n, n), dtype=int), np.zeros((n, n, n), dtype=int)
    sign, den, pref = np.zeros((n, n, n)), np.ones((n, n, n)), np.empty((n, n))
    for a, tmp in enumerate(range(tj, -tj - 1, -2)):
        for b, tm in enumerate(range(tj, -tj - 1, -2)):
            pref[a, b], terms = _d_terms(tj, tmp, tm)
            for slot, term in enumerate(terms):
                e1[slot, a, b], e2[slot, a, b], sign[slot, a, b], den[slot, a, b] = term
    return pref, e1, e2, sign, den


def _d_entry(tj, tmp, tm, beta):
    """d^j_{m' m}(beta) of one entry from the factorial sum, vectorized over beta."""
    pref, terms = _d_terms(tj, tmp, tm)
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    total = np.zeros_like(beta)
    for e1, e2, sign, den in terms:
        total = total + sign * c**e1 * s**e2 / den
    return pref * total


def wigner_d_small(j, beta):
    """Real rotation matrix d^j(beta) about the y axis.

    Rows and columns run over m = +j ... -j. beta may be a scalar or an
    array; the matrix axes are the trailing two. All entries are summed at
    once, slot by slot: each power c**e is taken once, as :func:`_d_entry`
    takes it, and gathered, so every entry rounds as its _d_entry does (a
    zero sign adds a signed zero, which leaves a sum as it is).
    """
    tj = _check_j(j).twice
    pref, e1, e2, sign, den = _d_slots(tj)
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    cp = np.stack([c**e for e in range(tj + 1)], axis=-1)
    sp = np.stack([s**e for e in range(tj + 1)], axis=-1)
    total = np.zeros(beta.shape + pref.shape)
    for slot in range(tj + 1):
        total = total + sign[slot] * cp[..., e1[slot]] * sp[..., e2[slot]] / den[slot]
    return pref * total


def euler_zyz(u):
    """Euler angles (alpha, beta, gamma) with u = Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi] and gamma in [0, 2pi); alpha ranges over [0, 4pi)
    so that the decomposition covers both sheets of SU(2) exactly. One u
    gives three floats; a batch (..., 2, 2) gives three (...) arrays.
    """
    u = require_su2(u)
    top, bottom = u[..., 0, 0], u[..., 1, 0]
    # hypot rounds as abs() of one complex scalar does; np.abs rounds apart
    abs_top, abs_bottom = np.hypot(top.real, top.imag), np.hypot(bottom.real, bottom.imag)
    beta = 2.0 * np.arctan2(abs_bottom, abs_top)
    top, bottom = np.angle(top), np.angle(bottom)
    # at a pole only one of the angles alpha, gamma is defined; gamma = 0 there
    pole_top = abs_top < 1e-12
    pole = pole_top | (abs_bottom < 1e-12)
    at_pole = np.mod(np.where(pole_top, 2.0 * bottom, -2.0 * top), 4.0 * np.pi)
    alpha = np.where(pole, at_pole, np.mod(-top + bottom, 2.0 * np.pi))
    gamma = np.where(pole, 0.0, np.mod(-top - bottom, 2.0 * np.pi))
    rebuilt = _rotation_matrix(beta, alpha) @ _rotation_matrix(0.0, gamma)
    minus, plus = (np.abs(x).max(axis=(-2, -1)) for x in (rebuilt - u, rebuilt + u))
    alpha = np.where(minus > plus, np.mod(alpha + 2.0 * np.pi, 4.0 * np.pi), alpha)
    miss = np.minimum(minus, plus)
    _require(miss <= 1e-9, NotARotation, "Euler factorization failed to reproduce the input")
    if np.ndim(beta) == 0:
        return float(alpha), float(beta), float(gamma)
    return alpha, beta, gamma


def _wigner_D(j, alpha, beta, gamma) -> np.ndarray:
    """D^j_{m'm}(alpha, beta, gamma) = exp(-i alpha m') d^j_{m'm}(beta) exp(-i gamma m).

    The one place the Euler-angle form of D^j is built. The angles
    broadcast as arrays; the matrix axes are the trailing two.
    """
    j = _check_j(j)
    ms = np.array([float(m) for m in components(j)])
    left = np.exp(-1j * np.asarray(alpha, dtype=float)[..., None] * ms)
    right = np.exp(-1j * np.asarray(gamma, dtype=float)[..., None] * ms)
    return left[..., :, None] * wigner_d_small(j, beta) * right[..., None, :]


def rep_matrix(j, u) -> np.ndarray:
    """Spin-j representation matrices D^j(u) of SU(2) elements u (..., 2, 2).

    Computed through the zyz Euler decomposition of u (:func:`_wigner_D`),
    which respects the double cover: D^{1/2}(u) = u exactly. The batch is
    flattened, so one u takes the array path of :func:`wigner_d_small`
    like a batch member: numpy rounds a power of a float scalar apart
    from the same power taken in an array.
    """
    u = _as_matrix(u)
    d = _wigner_D(j, *euler_zyz(u.reshape((-1,) + u.shape[-2:])))
    return d.reshape(u.shape[:-2] + d.shape[-2:])


def su2_cgc(j, j1, j2, chi, chi1, chi2) -> float:
    """Clebsch-Gordan coefficient <j1 chi1 j2 chi2 | j chi> (Condon-Shortley).

    The coupled labels come first. Invalid couplings return 0.0: component
    sums that do not match, triangle-rule failures, components that exceed
    or are incompatible with their spin. Spins must still be valid
    half-integers (ValueError otherwise).
    """
    j1, j2, j = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j)
    m1, m2, m = HalfInt.of(chi1), HalfInt.of(chi2), HalfInt.of(chi)
    for jj in (j1, j2, j):
        _check_j(jj)
    if not (compatible(j1, m1) and compatible(j2, m2) and compatible(j, m)):
        return 0.0
    if m1 + m2 != m or not triangle_rule(j1, j2, j):
        return 0.0
    tj1, tj2, tj = j1.twice, j2.twice, j.twice
    tm1, tm2, tm = m1.twice, m2.twice, m.twice
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


def _harmonic_top(l: int, ms, theta, phi) -> np.ndarray:
    """Y_{l m}(theta, phi) for the orders 0 <= m <= l listed in ms, one row
    each, broadcast over theta and phi; one lpmv call covers them all.

    The one place Y_lm is evaluated. l above 85 raises InvalidOrbitalLabel,
    since (2l)! overflows a float.
    """
    if l > 85:
        raise InvalidOrbitalLabel(f"orbital label {l} overflows a float factorial")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = (-1,) + (1,) * np.broadcast(theta, phi).ndim
    norm = np.sqrt([(2 * l + 1) / (4.0 * np.pi) * _fact(l - m) / _fact(l + m) for m in ms])
    ms = np.asarray(ms).reshape(shape)
    return norm.reshape(shape) * lpmv(ms, l, np.cos(theta)) * np.exp(1j * ms * phi)


def _harmonic_rows(l: int, theta, phi) -> np.ndarray:
    """Y_{l m}(theta, phi) for m = l, l-1, ..., -l, Condon-Shortley phase.

    Row l - m holds Y_{lm}, broadcast over theta and phi. The m >= 0 rows
    come from :func:`_harmonic_top`; the m < 0 rows follow from
    Y_{l,-m} = (-1)^m conj(Y_{lm}).
    """
    top = _harmonic_top(l, range(l, -1, -1), theta, phi)
    signs = (-1.0) ** np.arange(1, l + 1).reshape((-1,) + (1,) * (top.ndim - 1))
    return np.concatenate([top, signs * np.conj(top[:l][::-1])])


def spherical_harmonic(l, m, theta, phi):
    """Spherical harmonic Y_{l m}(theta, phi), Condon-Shortley phase.

    l must be a nonnegative integer spin; m with |m| > l gives 0. theta and
    phi broadcast as arrays. Only the order |m| is evaluated; m < 0 follows
    from it as in :func:`_harmonic_rows`, bit for bit.
    """
    l, m = HalfInt.of(l), HalfInt.of(m)
    if not l.is_integer or l < HalfInt(0):
        raise InvalidOrbitalLabel(f"orbital label must be a nonnegative integer, got {l}")
    if not m.is_integer:
        raise InvalidOrbitalLabel(f"orbital component must be an integer, got {m}")
    l, m = int(l), int(m)
    y = _harmonic_top(l, [min(abs(m), l)], theta, phi)[0]
    if abs(m) > l:
        return np.zeros(y.shape)
    return y if m >= 0 else (-1.0) ** -m * np.conj(y)
