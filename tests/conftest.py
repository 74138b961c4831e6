"""Shared fixtures and random-object helpers."""

import math

import numpy as np
import pytest

from poincare_cgc.lorentz import FourMomentum, SpinorTransform, canonical_boost, polar_angles, spinor_to_lorentz
from poincare_cgc.su2 import _d_terms


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(20260814)


def quaternion_su2(q):
    """SU(2) matrices of the unit quaternions along q (nonzero 4-vectors,
    the last axis)."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    a = q[..., 0] + 1j * q[..., 1]
    b = q[..., 2] + 1j * q[..., 3]
    return np.stack(
        [np.stack([a, -np.conj(b)], axis=-1), np.stack([b, np.conj(a)], axis=-1)],
        axis=-2,
    )


def random_su2(rng, n=1):
    """Haar-distributed SU(2) matrices from normalized quaternions."""
    u = quaternion_su2(rng.normal(size=(n, 4)))
    return u[0] if n == 1 else u


def _d_entry(tj, tmp, tm, beta):
    """d^j_{m' m}(beta) of one entry from the factorial sum, vectorized over beta."""
    pref, terms = _d_terms(tj, tmp, tm)
    beta = np.asarray(beta, dtype=float)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    total = np.zeros_like(beta)
    for e1, e2, sign, den in terms:
        total = total + sign * c**e1 * s**e2 / den
    return pref * total


def _preimages(u, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles of the preimages u^-1 n of the directions n = (theta, phi)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    st = np.sin(theta)
    dirs = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta) * np.ones_like(phi)], axis=-1
    )
    return polar_angles(dirs @ spinor_to_lorentz(u)[1:, 1:])


def random_momentum(rng, s=1.0, scale=10.0):
    """On-shell momentum with mass squared s and |p| uniform in [0, scale*m]."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return FourMomentum.on_shell(s, np.sqrt(s) * scale * rng.uniform() * n)


def random_sl2c(rng):
    """Generic group element: canonical boost times a rotation."""
    boost = canonical_boost(random_momentum(rng, 1.0, 3.0))
    return boost @ SpinorTransform(random_su2(rng))


def _coefficient_index(l_max):
    """The entry (L - m, l) of a dense coefficient array, the layout of
    states._harmonic_fit, for each row l**2 + l - m of the harmonic table
    with l <= l_max = L."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    return l_max - (l * (l + 1) - np.arange(l.size)), l


def coefficient_rows(dense):
    """Dense coefficients [L - m, l, ...] as the rows l**2 + l - m of the
    harmonic table."""
    return dense[_coefficient_index(dense.shape[1] - 1)]


def dense_coefficients(rows):
    """Coefficients in the rows l**2 + l - m of the harmonic table as the
    dense array [L - m, l, ...], 0 where l < |m|."""
    l_max = math.isqrt(len(rows)) - 1
    dense = np.zeros((2 * l_max + 1, l_max + 1) + rows.shape[1:], dtype=rows.dtype)
    dense[_coefficient_index(l_max)] = rows
    return dense
