"""SL(2,C) spinor transforms, standard boosts and Wigner rotations.

Conventions: metric (+,-,-,-); a four-vector p maps to X_p = E*1 + p.sigma,
and alpha in SL(2,C) acts as X -> alpha X alpha†. exp(-i theta n.sigma/2)
rotates by +theta about n; exp(+eta n.sigma/2) boosts along n by rapidity eta.

Batch axes: a FourMomentum holds energy (...) and p (..., 3), a group
element is (..., 2, 2), a Lorentz matrix (..., 4, 4). Leading axes of the
arguments broadcast; matrix and vector axes trail; a scalar in (a float
energy, one 2x2 matrix) gives a scalar out, as the 0-d case of the same
code, each batch member bit for bit as its scalar call. A bad member (off
shell, s <= 0, non-finite, not unimodular, not in SU(2)) raises the scalar
call's error for the first one, before any output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MasslessUnsupported, NotARotation

SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_EYE = np.eye(2)


def _require(ok, error, message, *values):
    """Raise error(message.format(*values)) at the first member where ok is
    False, each value broadcast over ok's shape (trailing axes kept) and read
    there. ok is "not bad" ("not <=" rather than ">"), so a NaN fails too."""
    if not (ok.all() if ok.ndim else ok):
        i = np.unravel_index(np.argmin(ok), ok.shape)
        members = (np.broadcast_to(v, ok.shape + np.shape(v)[ok.ndim:])[i] for v in values)
        raise error(message.format(*members))


def _scalar(x):
    return float(x) if x.ndim == 0 else x  # a 0-d result as a float


def _dot(a, b):
    """Dot products over the last axis, rounded as the 1-d a @ b rounds."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matrices(m00, m01, m10, m11) -> np.ndarray:
    """(..., 2, 2) matrices from their entries, all of one shape."""
    out = np.empty(np.shape(m00) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _det_defect(m):
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0] - 1.0)


def _unitarity_defect(m):
    return np.abs(m @ np.conj(np.swapaxes(m, -1, -2)) - _EYE).max(axis=-1).max(axis=-1)


def _as_matrix(alpha) -> np.ndarray:
    return alpha.matrix if isinstance(alpha, SpinorTransform) else np.asarray(alpha, dtype=complex)


@dataclass(frozen=True)
class SpinorTransform:
    """SL(2,C) matrices (..., 2, 2). A translation multiplies the product and
    the coupled states by the same phase, so it never enters the reduction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape[-2:] != (2, 2):
            raise ValueError("matrix must be 2x2")
        # det rounds to about eps max|m_ij|^2, which is 1 on SU(2) and about e^rapidity on a boost
        defect = _det_defect(mat)
        scale = 1.0 if (defect <= 1e-12).all() else np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)) ** 2)
        _require(defect / scale <= 1e-12, ValueError, "matrix must be unimodular, |det-1| = {:.3e}", defect)
        object.__setattr__(self, "matrix", mat)

    def unitarity_defect(self):
        """max |m m† - 1| of each member."""
        return _scalar(_unitarity_defect(self.matrix))

    def inverse(self) -> "SpinorTransform":
        m = self.matrix
        return SpinorTransform(_matrices(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]))

    def __matmul__(self, other) -> "SpinorTransform":
        return SpinorTransform(self.matrix @ other.matrix)


@dataclass(frozen=True)
class FourMomentum:
    """On- or off-shell four-momenta (E, p), finite: energy (...), p (..., 3)."""

    energy: float | np.ndarray
    p: np.ndarray

    def __post_init__(self):
        energy, vec = np.asarray(self.energy, dtype=float), np.asarray(self.p, dtype=float)
        if vec.shape != energy.shape + (3,):
            raise ValueError(f"p must be a 3-vector per energy, got shapes {energy.shape}, {vec.shape}")
        ok = np.isfinite(energy) & np.isfinite(vec).all(axis=-1)
        _require(ok, ValueError, "four-momentum must be finite, got E = {}, p = {}", energy, vec)
        object.__setattr__(self, "energy", _scalar(energy))
        object.__setattr__(self, "p", vec)

    @classmethod
    def on_shell(cls, s, p) -> "FourMomentum":
        """Physical momenta of invariant mass squared s with spatial part p."""
        s, vec = np.asarray(s, dtype=float), np.asarray(p, dtype=float)
        _require(~(s <= 0.0), MasslessUnsupported, "mass squared must be positive, got {}", s)
        return cls(np.sqrt(s + _dot(vec, vec)), vec)

    @classmethod
    def rest(cls, s) -> "FourMomentum":
        return cls.on_shell(s, np.zeros(np.shape(s) + (3,)))

    @classmethod
    def from_array(cls, a) -> "FourMomentum":
        a = np.asarray(a, dtype=float)
        return cls(a[..., 0], a[..., 1:])

    def __getitem__(self, index) -> "FourMomentum":
        return FourMomentum(np.asarray(self.energy)[index], self.p[index])

    @property
    def mass2(self):
        return _scalar(self.energy * self.energy - _dot(self.p, self.p))

    @property
    def pabs(self):
        return _scalar(np.sqrt(_dot(self.p, self.p)))

    def as_array(self) -> np.ndarray:
        return np.concatenate((np.asarray(self.energy)[..., None], self.p), axis=-1)

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.energy + other.energy, self.p + other.p)

    def __sub__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(self.energy - other.energy, self.p - other.p)


def pauli_pair(p: FourMomentum) -> np.ndarray:
    """Hermitian matrices E*1 + p.sigma representing the four-vectors."""
    xy = p.p[..., 0] + 1j * p.p[..., 1]
    return _matrices(p.energy + p.p[..., 2], np.conj(xy), xy, p.energy - p.p[..., 2])


def spinor_to_lorentz(alpha) -> np.ndarray:
    """Lorentz matrices of SL(2,C) elements via the Pauli trace formula."""
    a = _as_matrix(alpha)
    lam = 0.5 * np.einsum("mab,...bc,ncd,...da->...mn", SIGMA, a, SIGMA, np.conj(np.swapaxes(a, -1, -2)))
    return np.real(lam)


def apply_lorentz(alpha, p: FourMomentum) -> FourMomentum:
    """Images of p under the Lorentz transformations of alpha."""
    return FourMomentum.from_array((spinor_to_lorentz(alpha) @ p.as_array()[..., None])[..., 0])


def is_proper_orthochronous(lam: np.ndarray, tol: float = 1e-10) -> bool:
    metric_ok = np.max(np.abs(lam.T @ METRIC @ lam - METRIC)) < tol
    return bool(metric_ok and lam[0, 0] >= 1.0 - tol and np.linalg.det(lam) > 0.0)


def polar_angles(v):
    """Polar and azimuthal angles of 3-vectors, shape (3,) or (..., 3): +z
    maps to (0, 0), -z to (pi, 0), zero to (0, 0); phi lies in [0, 2pi).
    A component that is NaN or infinite raises ValueError."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("vectors must have finite components")
    single = v.ndim == 1
    v = np.atleast_2d(v)
    rho = np.hypot(v[..., 0], v[..., 1])
    r = np.sqrt(rho**2 + v[..., 2] ** 2)
    theta = np.where(r > 0.0, np.arctan2(rho, v[..., 2]), 0.0)
    on_axis = rho <= 1e-14 * np.maximum(r, 1e-300)
    phi = np.where(on_axis, 0.0, np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi))
    theta = np.where(on_axis, np.where(v[..., 2] < 0.0, np.pi, 0.0), theta)
    return (float(theta[0]), float(phi[0])) if single else (theta, phi)


def _check_massive(p: FourMomentum, s):
    """(s, sqrt(s)) as arrays, checked: s > 0, p on the shell s (p's own by default)."""
    m2, given = p.mass2, s is not None
    s = np.asarray(s if given else m2, dtype=float)
    _require(~(s <= 0.0), MasslessUnsupported, "need positive mass squared, got s = {}", s)
    if given:
        off = np.abs(m2 - s) > 1e-6 * np.maximum(np.maximum(1.0, np.abs(s)), p.energy * p.energy)
        _require(~off, ValueError, "momentum is off shell: p^2 = {}, s = {}", m2, s)
    return s, np.asarray(np.sqrt(s))


def canonical_boost(p: FourMomentum, s=None) -> SpinorTransform:
    """Rotationless boost l(p) = (m*1 + X_p)/sqrt(2m(m+E)) carrying the rest
    momentum of mass m = sqrt(s) to p; Hermitian positive definite."""
    s, m = _check_massive(p, s)
    norm = np.sqrt(2.0 * m * (m + p.energy))[..., None, None]
    return SpinorTransform((m[..., None, None] * _EYE + pauli_pair(p)) / norm)


def direction_rotation(p) -> SpinorTransform:
    """Rotations rho(p) = Rz(phi) Ry(theta) carrying +z to p-hat, for a
    FourMomentum or 3-vectors: the identity at zero, Ry(pi) at -z."""
    return SpinorTransform(_rotation_matrix(*polar_angles(p.p if isinstance(p, FourMomentum) else p)))


def _rotation_matrix(theta, phi):
    """SU(2) matrix of Rz(phi) Ry(theta), broadcasting over angle arrays."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c, sn = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(-0.5j * phi)
    return _matrices(ep * c, -ep * sn, np.conj(ep) * sn, np.conj(ep) * c)


def helicity_boost(p: FourMomentum, s=None) -> SpinorTransform:
    """Helicity boost h(p) = rho(p) l(p_z), with p_z = (E, 0, 0, |p|)."""
    s, _ = _check_massive(p, s)
    p_z = FourMomentum(p.energy, np.asarray(p.pabs)[..., None] * np.array([0.0, 0.0, 1.0]))
    return direction_rotation(p) @ canonical_boost(p_z, s)


_BOOSTS = {"canonical": canonical_boost, "helicity": helicity_boost}


def standard_boost(p: FourMomentum, s=None, convention: str = "canonical") -> SpinorTransform:
    """The standard boost of the named convention."""
    if convention not in _BOOSTS:
        raise ValueError(f"unknown boost convention {convention!r}")
    return _BOOSTS[convention](p, s)


def wigner_rotation(alpha, p: FourMomentum, convention: str = "canonical") -> SpinorTransform:
    """Little-group elements W(alpha, p) = b(Lambda p)^-1 alpha b(p), b the convention's
    standard boost: unitary up to roundoff, and W(u, p) = u for canonical b, unitary u."""
    alpha = _as_matrix(alpha)
    b_q_inv = standard_boost(apply_lorentz(alpha, p), p.mass2, convention).inverse().matrix
    return SpinorTransform(b_q_inv @ alpha @ standard_boost(p, None, convention).matrix)


def require_su2(u, tol: float = 1e-10) -> np.ndarray:
    """Return u as an ndarray after checking each member is (numerically) in SU(2)."""
    u = _as_matrix(u)
    if u.shape[-2:] != (2, 2):
        raise NotARotation("rotation must be a 2x2 matrix")
    defect = _unitarity_defect(u)
    _require(defect <= tol, NotARotation, "matrix is not unitary, defect {:.3e}", defect)
    _require(_det_defect(u) <= tol, NotARotation, "matrix does not have unit determinant")
    return u
