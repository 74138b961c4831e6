"""SL(2,C) spinor transforms, standard boosts and Wigner rotations.

Conventions: metric (+,-,-,-); a four-vector p maps to the Hermitian matrix
X_p = E*1 + p.sigma, and alpha in SL(2,C) acts as X -> alpha X alpha†.
exp(-i theta n.sigma/2) rotates by +theta about n; exp(+eta n.sigma/2)
boosts along n with rapidity eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MasslessUnsupported, NotARotation

SIGMA = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_DET_TOL = 1e-12


def _as_matrix(alpha) -> np.ndarray:
    if isinstance(alpha, SpinorTransform):
        return alpha.matrix
    return np.asarray(alpha, dtype=complex)


@dataclass(frozen=True)
class SpinorTransform:
    """An SL(2,C) matrix. A translation multiplies the product and the
    coupled states by the same phase, so it never enters the reduction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        # "not <=": a NaN or infinite entry makes det non-finite and fails too
        if not abs(det - 1.0) <= _DET_TOL:
            raise ValueError(f"matrix must be unimodular, |det-1| = {abs(det - 1.0):.3e}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls) -> "SpinorTransform":
        return cls(np.eye(2, dtype=complex))

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m @ m.conj().T - np.eye(2))))

    def inverse(self) -> "SpinorTransform":
        m = self.matrix
        return SpinorTransform(np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex))

    def __matmul__(self, other) -> "SpinorTransform":
        return SpinorTransform(self.matrix @ other.matrix)


@dataclass(frozen=True)
class FourMomentum:
    """On- or off-shell four-momentum (E, p) with finite components."""

    energy: float
    p: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.p, dtype=float)
        if vec.shape != (3,):
            raise ValueError("p must be a 3-vector")
        energy = float(self.energy)
        if not (math.isfinite(energy) and np.isfinite(vec).all()):
            raise ValueError(f"four-momentum must be finite, got E = {energy}, p = {vec}")
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "p", vec)

    @classmethod
    def on_shell(cls, s: float, p) -> "FourMomentum":
        """Physical momentum of invariant mass squared s with spatial part p."""
        if s <= 0.0:
            raise MasslessUnsupported(f"mass squared must be positive, got {s}")
        vec = np.asarray(p, dtype=float)
        return cls(float(np.sqrt(s + vec @ vec)), vec)

    @classmethod
    def rest(cls, s: float) -> "FourMomentum":
        return cls.on_shell(s, np.zeros(3))

    @classmethod
    def from_array(cls, a) -> "FourMomentum":
        a = np.asarray(a, dtype=float)
        return cls(a[0], a[1:])

    @property
    def mass2(self) -> float:
        return self.energy**2 - float(self.p @ self.p)

    @property
    def pabs(self) -> float:
        return float(np.linalg.norm(self.p))

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.energy], self.p))

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.energy + other.energy, self.p + other.p)

    def __sub__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.energy - other.energy, self.p - other.p)


def pauli_pair(p: FourMomentum) -> np.ndarray:
    """Hermitian matrix E*1 + p.sigma representing the four-vector."""
    return np.tensordot(p.as_array(), SIGMA, axes=1)


def spinor_to_lorentz(alpha) -> np.ndarray:
    """Lorentz matrix of an SL(2,C) element via the Pauli trace formula."""
    a = _as_matrix(alpha)
    lam = 0.5 * np.einsum("mab,bc,ncd,da->mn", SIGMA, a, SIGMA, a.conj().T)
    return np.real(lam)


def apply_lorentz(alpha, p: FourMomentum) -> FourMomentum:
    """Image of p under the Lorentz transformation of alpha."""
    return FourMomentum.from_array(spinor_to_lorentz(alpha) @ p.as_array())


def is_proper_orthochronous(lam: np.ndarray, tol: float = 1e-10) -> bool:
    metric_ok = np.max(np.abs(lam.T @ METRIC @ lam - METRIC)) < tol
    return bool(metric_ok and lam[0, 0] >= 1.0 - tol and np.linalg.det(lam) > 0.0)


def polar_angles(v):
    """Polar and azimuthal angles of 3-vectors with fixed pole conventions.

    The +z axis maps to (0, 0), the -z axis to (pi, 0), and the zero vector
    to (0, 0). phi is reduced to [0, 2pi). Accepts shape (3,) or (..., 3).
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    v = np.atleast_2d(v)
    rho = np.hypot(v[..., 0], v[..., 1])
    r = np.sqrt(rho**2 + v[..., 2] ** 2)
    theta = np.where(r > 0.0, np.arctan2(rho, v[..., 2]), 0.0)
    on_axis = rho <= 1e-14 * np.maximum(r, 1e-300)
    phi = np.where(on_axis, 0.0, np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi))
    theta = np.where(on_axis, np.where(v[..., 2] < 0.0, np.pi, 0.0), theta)
    if single:
        return float(theta[0]), float(phi[0])
    return theta, phi


def _check_massive(p: FourMomentum, s: float | None) -> tuple[float, float]:
    s = p.mass2 if s is None else float(s)
    if s <= 0.0:
        raise MasslessUnsupported(f"need positive mass squared, got s = {s}")
    if abs(p.mass2 - s) > 1e-6 * max(1.0, abs(s), p.energy**2):
        raise ValueError(f"momentum is off shell: p^2 = {p.mass2}, s = {s}")
    return s, np.sqrt(s)


def canonical_boost(p: FourMomentum, s: float | None = None) -> SpinorTransform:
    """Rotationless boost l(p) carrying the rest momentum of mass sqrt(s) to p.

    l(p) = (m*1 + X_p)/sqrt(2m(m+E)) is Hermitian positive definite and
    satisfies Lambda(l(p)) (m, 0) = p.
    """
    s, m = _check_massive(p, s)
    mat = (m * np.eye(2) + pauli_pair(p)) / np.sqrt(2.0 * m * (m + p.energy))
    return SpinorTransform(mat)


def direction_rotation(p) -> SpinorTransform:
    """Rotation rho(p) = Rz(phi) Ry(theta) carrying the +z axis to p-hat.

    Accepts a FourMomentum or a 3-vector; returns the identity for the zero
    vector and Ry(pi) for the -z axis (phi = 0 at both poles).
    """
    vec = p.p if isinstance(p, FourMomentum) else np.asarray(p, dtype=float)
    theta, phi = polar_angles(vec)
    return SpinorTransform(_rotation_matrix(theta, phi))


def _rotation_matrix(theta, phi):
    """SU(2) matrix of Rz(phi) Ry(theta), broadcasting over angle arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c, sn = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(-0.5j * phi)
    out = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ep * c
    out[..., 0, 1] = -ep * sn
    out[..., 1, 0] = np.conj(ep) * sn
    out[..., 1, 1] = np.conj(ep) * c
    return out


def helicity_boost(p: FourMomentum, s: float | None = None) -> SpinorTransform:
    """Helicity boost h(p) = rho(p) l(p_z), with p_z = (E, 0, 0, |p|)."""
    s, _ = _check_massive(p, s)
    p_z = FourMomentum(p.energy, np.array([0.0, 0.0, p.pabs]))
    return direction_rotation(p) @ canonical_boost(p_z, s)


_BOOSTS = {"canonical": canonical_boost, "helicity": helicity_boost}


def standard_boost(p: FourMomentum, s: float | None = None, convention: str = "canonical") -> SpinorTransform:
    """The standard boost of the named convention."""
    try:
        return _BOOSTS[convention](p, s)
    except KeyError:
        raise ValueError(f"unknown boost convention {convention!r}") from None


def wigner_rotation(alpha, p: FourMomentum, convention: str = "canonical") -> SpinorTransform:
    """Little-group element W(alpha, p) = b(Lambda p)^-1 alpha b(p).

    b is the standard boost of the chosen convention. For alpha in SL(2,C)
    and massive p the result is unitary up to roundoff; in particular
    W(u, p) = u for canonical boosts and unitary u.
    """
    alpha = _as_matrix(alpha)
    s = p.mass2
    q = apply_lorentz(alpha, p)
    b_p = standard_boost(p, s, convention).matrix
    b_q_inv = standard_boost(q, s, convention).inverse().matrix
    return SpinorTransform(b_q_inv @ alpha @ b_p)


def require_su2(u, tol: float = 1e-10) -> np.ndarray:
    """Return u as an ndarray after checking it is (numerically) in SU(2)."""
    u = _as_matrix(u)
    if u.shape != (2, 2):
        raise NotARotation("rotation must be a 2x2 matrix")
    # "not <=": a NaN or infinite entry makes the defect non-finite and fails too
    defect = np.max(np.abs(u @ u.conj().T - np.eye(2)))
    if not defect <= tol:
        raise NotARotation(f"matrix is not unitary, defect {defect:.3e}")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > tol:
        raise NotARotation("matrix does not have unit determinant")
    return u
