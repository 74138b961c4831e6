"""SU(2) representation matrices, Clebsch-Gordan coefficients and
spherical harmonics in the Condon-Shortley convention.

Representation rows and columns are ordered by descending weight,
m = +j, j-1, ..., -j, matching :func:`poincare_cgc.halfint.components`.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
from scipy.special import lpmv

from .errors import InvalidOrbitalLabel
from .halfint import HalfInt, compatible, component_index, components, triangle_rule
from .lorentz import _as_matrix, require_su2

_MAX_J = HalfInt(20)
# the largest orbital label of Y_lm: (2l)! overflows a float beyond it
_MAX_L = 85


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
    """:func:`_d_entry_slots` of every entry of d^j, the entry axes (m', m)
    trailing."""
    n, ms = tj + 1, range(tj, -tj - 1, -2)
    pref, *slots, exponents = _d_entry_slots([(tj, tmp, tm) for tmp in ms for tm in ms])
    return (pref.reshape(n, n), *(a.reshape(-1, n, n) for a in slots), exponents)


# the largest |angle| accepted: below it no phase m phi with |m| <= 86 overflows
_MAX_ANGLE = 1e300


def _finite_angles(**angles) -> tuple[np.ndarray, ...]:
    """The angles, by name, as float arrays in the order given; ValueError
    naming the angle unless each is finite and at most _MAX_ANGLE in
    magnitude.

    A plain float test for a scalar angle. Every rest-frame table runs it,
    also when a general-frame table calls it, and so do
    :func:`wigner_d_small` and :func:`spherical_harmonic`.
    """
    arrays = tuple(np.asarray(angle, dtype=float) for angle in angles.values())
    for name, angle in zip(angles, arrays):
        # "not <=" so that NaN fails too
        if not (abs(float(angle)) if angle.ndim == 0 else np.abs(angle).max(initial=0.0)) <= _MAX_ANGLE:
            raise ValueError(f"angle {name} must be finite and at most {_MAX_ANGLE:g} in magnitude")
    return arrays


def wigner_d_small(j, beta):
    """Real rotation matrix d^j(beta) about the y axis.

    Rows and columns run over m = +j ... -j. beta may be a scalar or an
    array; the matrix axes are the trailing two. All entries are summed at
    once (:func:`_d_sum`), each rounding as its :func:`_d_terms` alone
    would. A beta that fails :func:`_finite_angles` raises ValueError.
    """
    tj = _check_j(j).twice
    (beta,) = _finite_angles(beta=beta)
    return _d_sum(_d_slots(tj), beta)


def _d_entry_slots(entries) -> tuple:
    """:func:`_d_slots` of a list of entries (2j, 2m', 2m) of d^j, of any
    j each: pref has one axis over the entries, and every entry's terms
    fill as many slots as the longest sum has terms, in order, with sign 0
    after its last term; exponents lists the powers of c and s they read."""
    sums = [_d_terms(*entry) for entry in entries]
    shape = (max((len(terms) for _, terms in sums), default=1), len(entries))
    e1, e2 = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    sign, den, pref = np.zeros(shape), np.ones(shape), np.array([weight for weight, _ in sums])
    for k, (_, terms) in enumerate(sums):
        for slot, term in enumerate(terms):
            e1[slot, k], e2[slot, k], sign[slot, k], den[slot, k] = term
    held = sign != 0.0
    return pref, e1, e2, sign, den, tuple(sorted(set(e[held].tolist())) for e in (e1, e2))


def _d_sum(slots, beta):
    """The entries of d^j(beta) that slots (:func:`_d_slots`,
    :func:`_d_entry_slots`) describe, all summed at once, slot by slot.
    Each power c**e that a term reads is taken once, as beta's shape, and
    gathered (the others stay 0), so every entry rounds as its own
    :func:`_d_terms` summed alone does (a zero sign adds a signed zero,
    which leaves a sum as it is), whichever entries are summed with it."""
    pref, e1, e2, sign, den, exponents = slots
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    cp, sp = (np.zeros(beta.shape + (max(used, default=0) + 1,)) for used in exponents)
    for base, table, used in ((c, cp, exponents[0]), (s, sp, exponents[1])):
        for e in used:
            table[..., e] = base**e
    total = np.zeros(beta.shape + pref.shape)
    for slot in range(len(sign)):
        total += sign[slot] * cp[..., e1[slot]] * sp[..., e2[slot]] / den[slot]
    return pref * total


def euler_zyz(u):
    """Euler angles (alpha, beta, gamma) with u = Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi] and gamma in [0, 2pi); alpha ranges over [0, 4pi)
    so that the decomposition covers both sheets of SU(2) exactly: off the
    poles, u00 = e^{-i(alpha+gamma)/2} cos(beta/2) puts alpha on the other
    sheet when cos(arg u00 + (alpha+gamma)/2) < 0. require_su2 is the one
    check. One u gives three floats; a batch (..., 2, 2) three (...) arrays.
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
    alpha, gamma = np.mod(-top + bottom, 2.0 * np.pi), np.mod(-top - bottom, 2.0 * np.pi)
    other = np.cos(top + 0.5 * (alpha + gamma)) < 0.0
    alpha = np.where(pole, at_pole, np.where(other, np.mod(alpha + 2.0 * np.pi, 4.0 * np.pi), alpha))
    gamma = np.where(pole, 0.0, gamma)
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


def _slot_matrix(j1, j2, angles) -> np.ndarray:
    """D^{j1}(u1) x D^{j2}(u2), which mixes raveled spin slots, at angles
    = euler_zyz of the batch (u1, u2), or of (u,) for u1 = u2 = u, with
    the bytes of np.kron(rep_matrix(j1, u1), rep_matrix(j2, u2)); D^{j1}
    is built once when j1 == j2."""
    d1 = _wigner_D(j1, *angles)
    d2 = d1 if j2 == j1 else _wigner_D(j2, *angles)
    return np.kron(d1[0], d2[-1])


def su2_cgc(j, j1, j2, chi, chi1, chi2) -> float:
    """Clebsch-Gordan coefficient <j1 chi1 j2 chi2 | j chi> (Condon-Shortley).

    The coupled labels come first. Invalid couplings return 0.0: component
    sums that do not match, triangle-rule failures, components that exceed
    or are incompatible with their spin. Spins must be valid half-integers
    up to the maximum (ValueError); a valid coupling reads :func:`_cg_block`.
    """
    j1, j2, j = HalfInt.of(j1), HalfInt.of(j2), HalfInt.of(j)
    m1, m2, m = HalfInt.of(chi1), HalfInt.of(chi2), HalfInt.of(chi)
    for jj in (j1, j2, j):
        _check_j(jj)
    if not (compatible(j1, m1) and compatible(j2, m2) and compatible(j, m)):
        return 0.0
    if m1 + m2 != m or not triangle_rule(j1, j2, j):
        return 0.0
    return float(_cg_block(j1.twice, j2.twice, j.twice)[component_index(j1, m1), component_index(j2, m2)])


@functools.cache
def _cg_block(tj1, tj2, tj) -> np.ndarray:
    """<j1 m1 j2 m2 | j m1+m2> for m1 = j1 ... -j1 (rows) and m2 = j2 ... -j2
    (columns), twice each spin as an int, (j1, j2, j) passing the triangle
    rule; 0 where |m1 + m2| > j. Cached, so read-only.

    The one place a Clebsch-Gordan coefficient is formed: Racah's sum of
    every entry at once, in ascending k with 0 where an entry has no term
    k, so each entry rounds as its own scalar sum does. Entries out of
    range are masked before they index the factorials (a negative index
    would wrap)."""
    fact = np.array([_fact(n) for n in range((tj1 + tj2 + tj) // 2 + 2)])
    tm1, tm2 = np.ogrid[tj1 : -tj1 - 1 : -2, tj2 : -tj2 - 1 : -2]
    held = np.abs(tm1 + tm2) <= tj
    tm, top = np.where(held, tm1 + tm2, 0), (tj1 + tj2 - tj) // 2
    pref = np.sqrt((tj + 1.0) * fact[(tj + tj1 - tj2) // 2] * fact[(tj - tj1 + tj2) // 2] * fact[top]
                   / fact[(tj1 + tj2 + tj) // 2 + 1] * fact[(tj + tm) // 2] * fact[(tj - tm) // 2]
                   * fact[(tj1 - tm1) // 2] * fact[(tj1 + tm1) // 2]
                   * fact[(tj2 - tm2) // 2] * fact[(tj2 + tm2) // 2])
    total = np.zeros(tm.shape)
    for k in range(top + 1):
        args = np.broadcast_arrays(k, top - k, (tj1 - tm1) // 2 - k, (tj2 + tm2) // 2 - k,
                                   (tj - tj2 + tm1) // 2 + k, (tj - tj1 - tm2) // 2 + k)
        term = held & (np.min(args, axis=0) >= 0)
        den = functools.reduce(operator.mul, (fact[np.where(term, n, 0)] for n in args))
        total += np.where(term, (-1.0) ** k / den, 0.0)
    block = np.where(held, pref * total, 0.0)
    block.flags.writeable = False
    return block


def _check_l(l: int) -> None:
    """Orbital labels above _MAX_L raise InvalidOrbitalLabel."""
    if l > _MAX_L:
        raise InvalidOrbitalLabel(f"orbital label {l} overflows a float factorial")


@functools.cache
def _lpmv_scale(l: int, m: int) -> float:
    """lpmv's factor rg = l (l + m) prod_{0<j<m} (l^2 - j^2), multiplied in
    lpmv's order; 1.0 for m = 0, where lpmv takes c0 = 1."""
    rg = float(l) * (l + m)
    for j in range(1, m):
        rg *= float(l) * l - j * j
    return rg if m else 1.0


def _series_factors(degrees, n: int, ndim: int) -> tuple:
    """The x-free data of lpmv's series (specfun lpmv0) for an integer
    degree at the degrees listed and the orders m = l - n: (m, sign, rg,
    steps) with sign (-1)^l, rg from :func:`_lpmv_scale` and steps the
    factors (-l + m + k - 1.0, l + m + k, k (k + m)) of the terms k = 1
    ... n as floats, each shaped to broadcast against ndim trailing
    axes."""
    l = np.asarray(degrees).reshape((-1,) + (1,) * ndim)
    m = l - n
    steps = [(-l + m + k - 1.0, (l + m + k).astype(float), (k * (k + m)).astype(float))
             for k in range(1, n + 1)]
    rg = np.array([_lpmv_scale(int(a), int(a) - n) for a in l.flat]).reshape(l.shape)
    return m.ravel(), np.where(l % 2, -1.0, 1.0), rg, steps


def _lpmv_series(factors, r0, x) -> np.ndarray:
    """lpmv's series at the degrees and orders of factors
    (:func:`_series_factors`): (-1)^l c0 pmv in that order, with c0 =
    r0[m] rg, r0[m] = 2^-m (1 - x^2)^(m/2) / m! as lpmv carries it, and
    pmv the n terms in (1 + x)."""
    m, sign, rg, steps = factors
    pmv = r = 1.0
    for up, factor, down in steps:
        r = 0.5 * r * up * factor / down * (1.0 + x)
        pmv = pmv + r
    return sign * (r0[m] * rg) * pmv


@functools.cache
def _sweep_factors(l_max: int, ndim: int) -> tuple:
    """The x-free data of :func:`_legendre` for l_max and an x of ndim
    axes, once per pair; read-only, since it is shared. The degrees, the
    series factors (:func:`_series_factors`) of the top two orders of
    every degree and of P_2^0, the factors 2l - 1 per degree, and per
    degree l the recurrence's factors (l - 1 + m, l - m) over its orders
    m = 0 ... l - 2. They are the integers the sweep used to compute on
    every call, held as floats, which hold them exactly and which numpy
    would cast them to, so every step rounds as before."""
    ls = np.arange(l_max + 1)
    series = [_series_factors(ls, 0, ndim), _series_factors(ls[1:], 1, ndim),
              _series_factors([2], 2, ndim)]
    odd = (2.0 * ls - 1.0).reshape((-1,) + (1,) * ndim)
    orders = [np.arange(max(l - 1, 0), dtype=float).reshape((-1,) + (1,) * ndim)
              for l in range(l_max + 1)]
    recurrence = [(l - 1 + m, l - m) for l, m in enumerate(orders)]
    arrays = [ls, odd, *(a for m, sign, rg, steps in series for a in (m, sign, rg, *sum(steps, ())))]
    for array in arrays + [a for pair in recurrence for a in pair]:
        array.flags.writeable = False
    return ls, series, odd, recurrence


def _legendre(l_max: int, x) -> np.ndarray:
    """P[l, m] = lpmv(m, l, x), bit for bit, for every 0 <= m <= l <= l_max.

    x broadcasts along the trailing axes; entries with m > l are 0. The two
    top orders m = l and m = l - 1 of every degree come from lpmv's own
    series (:func:`_lpmv_series`), all degrees at once, and the lower ones
    from lpmv's upward recurrence in the degree,
    ((2l-1) x P[l-1] - (l-1+m) P[l-2]) / (l-m), over all orders at once.
    lpmv returns its series value for l <= 2 but recurs through its own
    P_2^0, so the sweep does too and P[2, 0] is set to the series last.
    The factors that do not depend on x come from :func:`_sweep_factors`.
    """
    x = np.asarray(x, dtype=float)
    ls, (top, below, p20), odd, recurrence = _sweep_factors(l_max, x.ndim)
    out = np.zeros((l_max + 1, l_max + 1) + x.shape)
    xq = np.sqrt(1.0 - x * x)
    r0 = np.empty((l_max + 1,) + x.shape)
    r0[0] = 1.0
    for j in range(1, l_max + 1):
        r0[j] = 0.5 * r0[j - 1] * xq / j
    out[ls, ls] = _lpmv_series(top, r0, x)
    out[ls[1:], ls[:-1]] = _lpmv_series(below, r0, x)
    odd_x = odd * x
    for l in range(2, l_max + 1):
        rise, drop = recurrence[l]
        row = out[l, : l - 1]
        np.multiply(odd_x[l], out[l - 1, : l - 1], out=row)
        row -= rise * out[l - 2, : l - 1]
        row /= drop
    if l_max >= 2:
        out[2, 0] = _lpmv_series(p20, r0, x)[0]
    return out


@functools.cache
def _norms(l: int) -> np.ndarray:
    """N_{lm} = sqrt((2l+1)/4pi (l-m)!/(l+m)!) for m = 0 ... l, read-only."""
    norm = np.sqrt([(2 * l + 1) / (4.0 * np.pi) * _fact(l - m) / _fact(l + m)
                    for m in range(l + 1)])
    norm.flags.writeable = False
    return norm


def _top_rows(l: int, ms, legendre, phase) -> np.ndarray:
    """Y_{l m} = N_{lm} P_l^m(cos theta) e^{i m phi} for the orders 0 <= m <= l
    listed in ms, from their rows of Legendre values and phases.

    The one formula for Y_lm: the direct path (:func:`_harmonic_top`) and
    the sweep (:func:`_harmonic_table`) both end here.
    """
    norm = _norms(l)[np.asarray(ms)]
    return norm.reshape((-1,) + (1,) * (legendre.ndim - 1)) * legendre * phase


def _with_negative_orders(top) -> np.ndarray:
    """Rows m = l ... -l from the rows m = l ... 0, by Y_{l,-m} = (-1)^m conj(Y_{lm})."""
    l = len(top) - 1
    signs = (-1.0) ** np.arange(1, l + 1).reshape((-1,) + (1,) * (top.ndim - 1))
    return np.concatenate([top, signs * np.conj(top[:l][::-1])])


def _harmonic_top(l: int, ms, theta, phi) -> np.ndarray:
    """Y_{l m}(theta, phi) for the orders 0 <= m <= l listed in ms, one row
    each, broadcast over theta and phi; one lpmv call covers them all.

    l above _MAX_L raises InvalidOrbitalLabel.
    """
    _check_l(l)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m = np.asarray(ms).reshape((-1,) + (1,) * np.broadcast(theta, phi).ndim)
    return _top_rows(l, ms, lpmv(m, l, np.cos(theta)), np.exp(1j * m * phi))


def _harmonic_rows(l: int, theta, phi) -> np.ndarray:
    """Y_{l m}(theta, phi) for m = l, l-1, ..., -l, Condon-Shortley phase.

    Row l - m holds Y_{lm}, broadcast over theta and phi. The m >= 0 rows
    come from :func:`_harmonic_top`; the m < 0 rows follow from
    Y_{l,-m} = (-1)^m conj(Y_{lm}).
    """
    return _with_negative_orders(_harmonic_top(l, range(l, -1, -1), theta, phi))


def _harmonic_table(l_max: int, theta, phi, l_min: int = 0) -> np.ndarray:
    """The rows of :func:`_harmonic_rows` for l = l_min ... l_max, stacked, bit for bit.

    Row l**2 - l_min**2 + l - m holds Y_{lm}. One degree is its
    _harmonic_rows; over several, one Legendre sweep (:func:`_legendre`,
    from degree 0) and one e^{i m phi} per order serve every degree.
    """
    _check_l(l_max)
    if l_min == l_max:
        return _harmonic_rows(l_max, theta, phi)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    x = np.cos(theta)
    legendre = _legendre(l_max, x.reshape((1,) * (len(shape) - x.ndim) + x.shape))
    phase = np.exp(1j * np.arange(l_max + 1).reshape((-1,) + (1,) * len(shape)) * phi)
    table = np.empty(((l_max + 1) ** 2 - l_min**2,) + shape, dtype=complex)
    for l in range(l_min, l_max + 1):
        top = _top_rows(l, range(l, -1, -1), legendre[l, l::-1], phase[l::-1])
        table[l * l - l_min**2 : (l + 1) ** 2 - l_min**2] = _with_negative_orders(top)
    return table


@functools.cache
def _quarter_turn(l: int) -> np.ndarray:
    """Delta_l = d^l(pi/2), rows and columns m = l ... -l, once per degree;
    read-only, since it is shared.

    Built from Delta_{l-1} by coupling spin 1 to spin l - 1 at the top spin
    l, as Risbo, J. Geodesy 70, 383 (1996) couples spin 1/2:
    d^l_{m' m} = sum_{a,b} C^a_{m'} C^b_m d^1_{ab} d^{l-1}_{m'-a, m-b} with
    C^a_m = <1 a, l-1 m-a | l m>. Each step sums products of factors of at
    most 1, so Delta_85 is orthogonal to 2e-15, where the factorial sum of
    :func:`wigner_d_small` stops at l = 10. The entries +-sqrt(1/2) of d^1
    are taken inside the square root of C^0: rounded once and multiplied
    in at every step, sqrt(1/2) drifted the orthogonality to 9e-15 at l = 85.
    """
    _check_l(l)
    delta = np.ones((1, 1))
    if l:
        prev, inner = _quarter_turn(l - 1), 2 * l - 1
        k = np.arange(l - 1, -l, -1.0)
        # C^a for a = 1, 0, -1 (C^0 times sqrt(1/2)) over the components k of spin l - 1
        coupling = np.sqrt(np.array([(l + k + 1) * (l + k), (l + k) * (l - k), (l - k + 1) * (l - k)])
                           / (2.0 * l * inner))
        delta = np.zeros((inner + 2, inner + 2))
        # d^1(pi/2), its entries +-sqrt(1/2) taken into C^0
        for a, row in enumerate(((0.5, -1.0, 0.5), (1.0, 0.0, -1.0), (0.5, 1.0, 0.5))):
            for b, entry in enumerate(row):
                delta[a : a + inner, b : b + inner] += entry * coupling[a][:, None] * coupling[b] * prev
    delta.flags.writeable = False
    return delta


def _rotated_harmonics(coeffs, alpha, beta, gamma) -> np.ndarray:
    """The coefficients of f(u^-1 n), for f(n) = sum_lm c_lm Y_lm(n) with
    c_lm at [l_max - m, l] of a dense (2 l_max + 1, l_max + 1, columns)
    array, 0 where l < |m|, and u's Euler angles (:func:`euler_zyz`): c_l,
    the slice [l_max - l : l_max + l + 1, l], turns by D^l(u) degree by
    degree.

    D^l(u) = E(alpha - pi/2) Delta_l^T E(beta) Delta_l E(gamma + pi/2), with
    E(x) = diag(e^{-i m x}) and Delta_l = d^l(pi/2) (:func:`_quarter_turn`):
    the turn about y is a turn about z between two quarter turns, as in
    Trapani and Navaza, Acta Cryst. A62, 262 (2006). The angles enter as
    phases only, and each degree takes two real matmuls against the
    coefficients viewed as floats.
    """
    l_max = coeffs.shape[1] - 1
    # e^{-i m x} for m = l_max ... -l_max, along the orders' axis
    first, middle, last = np.exp(-1j * np.multiply.outer([gamma + 0.5 * np.pi, beta, alpha - 0.5 * np.pi],
                                                         np.arange(l_max, -l_max - 1, -1.0)))[..., None, None]
    turned = (coeffs * first).view(float)
    for l in range(l_max + 1):
        rows, delta = slice(l_max - l, l_max + l + 1), _quarter_turn(l)
        mid = (delta @ turned[rows, l]).view(complex) * middle[rows, 0]
        np.matmul(delta.T, mid.view(float), out=turned[rows, l])
    return turned.view(complex) * last


def spherical_harmonic(l, m, theta, phi):
    """Spherical harmonic Y_{l m}(theta, phi), Condon-Shortley phase.

    l must be a nonnegative integer spin; m with |m| > l gives complex
    zeros, with nothing evaluated. theta and phi broadcast as arrays; ones
    that fail :func:`_finite_angles` raise ValueError. Only the order |m|
    is evaluated; m < 0 follows from it as in :func:`_harmonic_rows`, bit
    for bit.
    """
    l, m = HalfInt.of(l), HalfInt.of(m)
    if not l.is_integer or l < HalfInt(0):
        raise InvalidOrbitalLabel(f"orbital label must be a nonnegative integer, got {l}")
    if not m.is_integer:
        raise InvalidOrbitalLabel(f"orbital component must be an integer, got {m}")
    l, m = int(l), int(m)
    _check_l(l)
    theta, phi = _finite_angles(theta=theta, phi=phi)
    if abs(m) > l:
        return np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
    y = _harmonic_top(l, [abs(m)], theta, phi)[0]
    return y if m >= 0 else (-1.0) ** -m * np.conj(y)
