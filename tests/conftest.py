"""Shared fixtures and random-object helpers."""

import numpy as np
import pytest

from poincare_cgc.lorentz import FourMomentum, SpinorTransform, canonical_boost


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


def random_momentum(rng, s=1.0, scale=10.0):
    """On-shell momentum with mass squared s and |p| uniform in [0, scale*m]."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return FourMomentum.on_shell(s, np.sqrt(s) * scale * rng.uniform() * n)


def random_sl2c(rng):
    """Generic group element: canonical boost times a rotation."""
    boost = canonical_boost(random_momentum(rng, 1.0, 3.0))
    return boost @ SpinorTransform(random_su2(rng))
