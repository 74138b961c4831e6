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
    pref, *slots = _d_entry_slots([(tj, tmp, tm) for tmp in ms for tm in ms])
    return (pref.reshape(n, n), *(a.reshape(n, n, n) for a in slots))


def _d_entry(tj, tmp, tm, beta):
    """d^j_{m' m}(beta) of one entry from the factorial sum, vectorized over beta."""
    pref, terms = _d_terms(tj, tmp, tm)
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    total = np.zeros_like(beta)
    for e1, e2, sign, den in terms:
        total = total + sign * c**e1 * s**e2 / den
    return pref * total


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
    once (:func:`_d_sum`), so every entry rounds as its :func:`_d_entry`
    does. A beta that fails :func:`_finite_angles` raises ValueError.
    """
    tj = _check_j(j).twice
    (beta,) = _finite_angles(beta=beta)
    return _d_sum(_d_slots(tj), beta)


def _d_entry_slots(entries) -> tuple:
    """:func:`_d_slots` of a list of entries (2j, 2m', 2m) of d^j, of any
    j each: pref has one axis over the entries, and every entry's terms
    fill as many slots as the largest 2j + 1, in order, with sign 0 after
    its last term."""
    shape = (max((tj + 1 for tj, _, _ in entries), default=1), len(entries))
    e1, e2 = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    sign, den, pref = np.zeros(shape), np.ones(shape), np.empty(len(entries))
    for k, entry in enumerate(entries):
        pref[k], terms = _d_terms(*entry)
        for slot, term in enumerate(terms):
            e1[slot, k], e2[slot, k], sign[slot, k], den[slot, k] = term
    return pref, e1, e2, sign, den


def _d_sum(slots, beta):
    """The entries of d^j(beta) that slots (:func:`_d_slots`,
    :func:`_d_entry_slots`) describe, all summed at once, slot by slot.
    Each power c**e is taken once and gathered, so every entry rounds as
    its :func:`_d_entry` does (a zero sign adds a signed zero, which
    leaves a sum as it is), whichever entries are summed with it."""
    pref, e1, e2, sign, den = slots
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    cp = np.stack([c**e for e in range(len(sign))], axis=-1)
    sp = np.stack([s**e for e in range(len(sign))], axis=-1)
    total = np.zeros(beta.shape + pref.shape)
    for slot in range(len(sign)):
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


def _harmonic_table(l_max: int, theta, phi) -> np.ndarray:
    """The rows of :func:`_harmonic_rows` for l = 0 ... l_max, stacked, bit for bit.

    Row l**2 + l - m holds Y_{lm}. One Legendre sweep (:func:`_legendre`)
    and one e^{i m phi} per order serve every degree, where l_max + 1 calls
    of _harmonic_rows would run lpmv's recurrence once per (l, m).
    """
    _check_l(l_max)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(theta, phi).shape
    x = np.cos(theta)
    legendre = _legendre(l_max, x.reshape((1,) * (len(shape) - x.ndim) + x.shape))
    phase = np.exp(1j * np.arange(l_max + 1).reshape((-1,) + (1,) * len(shape)) * phi)
    table = np.empty(((l_max + 1) ** 2,) + shape, dtype=complex)
    for l in range(l_max + 1):
        top = _top_rows(l, range(l, -1, -1), legendre[l, l::-1], phase[l::-1])
        table[l * l : (l + 1) ** 2] = _with_negative_orders(top)
    return table


def _order_terms(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, norms, signs) by which :func:`_harmonic_sum` gathers its
    coefficients order by order. rows[0][m, l] and rows[1][m, l] are the
    rows l**2 + l - m and l**2 + l + m of Y_{l,m} and Y_{l,-m} in
    :func:`_harmonic_table`'s order, norms[m, l] is N_lm, and signs[m] is
    (-1)^m, 0 at m = 0, where there is no negative order. Entries with
    l < m read row 0 with norm 0."""
    m, l = np.ogrid[: l_max + 1, : l_max + 1]
    held = l >= m
    rows = np.stack([np.where(held, l * l + l - m, 0), np.where(held, l * l + l + m, 0)])
    norms = np.zeros((l_max + 1, l_max + 1))
    for degree in range(l_max + 1):
        norms[: degree + 1, degree] = _norms(degree)
    return rows, norms, np.where(m[:, 0] % 2, -1.0, 1.0) * (m[:, 0] > 0)


def _waves(l_max: int, phi) -> np.ndarray:
    """e^{i m phi} for m = 0 ... l_max along a trailing axis, phi a 1-D
    array. Order m is the product of the waves e^{i 2^k phi} of the bits
    of m, each from one exp of an exact multiple of phi, so it carries at
    most a few roundings more than the exp of m phi, where a running
    product would carry m of them."""
    waves = np.empty((l_max + 1,) + phi.shape, dtype=complex)
    waves[0] = 1.0
    power = 1
    while power <= l_max:
        width = min(power, l_max + 1 - power)
        np.multiply(waves[:width], np.exp(1j * (power * phi)), out=waves[power : power + width])
        power *= 2
    return waves.T.copy()


def _harmonic_sum(coeffs, theta, phi, step: int) -> np.ndarray:
    """sum_lm c_lm Y_lm(theta_n, phi_n) at the 1-D angle arrays theta and
    phi, as (nodes, columns), for coefficients c_lm in the rows l**2 + l -
    m of :func:`_harmonic_table` (l <= l_max), columns trailing.

    The harmonic table is never built; the sum runs order by order. With
    P_l^m the real sweep (:func:`_legendre`) at x = cos theta, and
    Y_{l,-m} = (-1)^m conj(Y_lm),

        f(n) = sum_m e^{i m phi_n} sum_l N_lm P_l^m(x_n) c_{l,m}
             + sum_{m>0} e^{-i m phi_n} sum_l (-1)^m N_lm P_l^m(x_n) c_{l,-m}
             = sum_m cos(m phi_n) S+_m(n) + sin(m phi_n) S-_m(n),

    where S+/-_m are the l-sums against N_lm (c_{l,m} +/- (-1)^m c_{l,-m}),
    times i for S-. Those are real batched matmuls over m against the
    coefficients viewed as floats, the norms folded in; the sum over m is
    then one small matmul per node. The nodes are taken step (at least 2)
    at a time, so the sweep holds (l_max + 1)**2 * step values, and the
    orders in groups whose l-sums hold at most a quarter of that: the
    sweep stays the one large buffer of a block. (With l-sums as large as
    the sweep, malloc gave their memory back to the system after each
    block and faulted it in again, which doubled a rotation's time on
    16x33.) Every node rounds alike in any block of two nodes or more, so
    a last block of one node, whose l-sums numpy would take as a
    matrix-vector product, joins the block before it.
    """
    l_max = math.isqrt(len(coeffs)) - 1
    _check_l(l_max)
    rows, norms, signs = _order_terms(l_max)
    ahead, behind = coeffs[rows[0]], signs[:, None, None] * coeffs[rows[1]]
    folded = norms[..., None, None] * np.stack([ahead + behind, 1j * (ahead - behind)], axis=2)
    # (m, l, 2 * 2 columns) floats: S+ then S-, each a real and an imaginary part per column
    folded = folded.view(float).reshape(l_max + 1, l_max + 1, -1)
    width = folded.shape[-1]
    group = max(1, (l_max + 1) ** 2 // (4 * width))
    out = np.zeros((theta.size, coeffs.shape[1]), dtype=complex)
    starts = list(range(0, theta.size, max(step, 2)))
    if len(starts) > 1 and starts[-1] == theta.size - 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [theta.size]):
        block = slice(lo, hi)
        legendre = _legendre(l_max, np.cos(theta[block])).transpose(1, 2, 0)
        nodes = legendre.shape[1]
        # (cos m phi, sin m phi) per node and order, the floats of e^{i m phi}
        trig = _waves(l_max, phi[block]).view(float)
        total = out[block].view(float)
        sums = np.empty((nodes, group, width))
        for m in range(0, l_max + 1, group):
            k = min(group, l_max + 1 - m)
            # sums[n, i] = (S+, S-) of order m + i at node n, written node-major
            np.matmul(legendre[m : m + k], folded[m : m + k], out=sums[:, :k].transpose(1, 0, 2))
            part = sums[:, :k].reshape(nodes, 2 * k, -1)
            total += np.matmul(trig[:, None, 2 * m : 2 * (m + k)], part)[:, 0]
    return out


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
