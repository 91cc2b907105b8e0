"""The quadratic loss L(w) = 1/2 w^T A w, the package's one landscape.

Its gradient w @ A is exact. ``value`` and ``gradient`` broadcast over
leading axes: passing an array of shape ``(m, dim)`` evaluates m points at
once, which the batched ensemble runner relies on. The class is the math
alone: how a long dense run splits ``w @ A`` between processes is
``integrators._gradient``'s concern.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "QuadraticLandscape",
    "quadratic_isotropic",
    "quadratic_general",
    "landscape_from_name",
]


def _coordinate_sum(x):
    """``np.sum(x, axis=-1)`` bit for bit. Over one coordinate that sum is the
    column added onto 0.0, as in ``raw_gradient``, so it is taken as such
    without a reduction's per-call cost."""
    return x[..., 0] + 0.0 if x.shape[-1] == 1 else np.sum(x, axis=-1)


def _potential(w, gw):
    """L(w) = 1/2 w . gw at each row of ``w`` (shape (..., dim)), given ``gw``,
    the gradient w @ A there as ``raw_gradient`` gives it."""
    return 0.5 * _coordinate_sum(gw * w)


class QuadraticLandscape:
    """L(w) = 1/2 w^T A w for a symmetric positive-semidefinite matrix A."""

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise InvalidArgument(f"curvature matrix must be square and non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidArgument("curvature matrix must be finite")
        if not np.array_equal(a, a.T):
            raise InvalidArgument("curvature matrix must be exactly symmetric")
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min() < -1e-12:
            raise InvalidArgument(
                f"curvature matrix must be positive semidefinite "
                f"(smallest eigenvalue {eigenvalues.min():g})"
            )
        a.setflags(write=False)
        self._matrix = a

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def check_point(self, w) -> np.ndarray:
        """``w`` as a float array whose last axis has ``dim`` coordinates: a point,
        or a batch of points. The package's one dimension check."""
        w = np.asarray(w, dtype=float)
        if w.ndim == 0 or w.shape[-1] != self.dim:
            raise InvalidArgument(f"point of shape {w.shape}, landscape expects dimension {self.dim}")
        return w

    def value(self, w):
        # w @ A works for both single points and (m, dim) batches since A is
        # symmetric.
        w = self.check_point(w)
        return _potential(w, w @ self._matrix)

    def gradient(self, w):
        return self.check_point(w) @ self._matrix

    def raw_gradient(self):
        """``gradient`` as a bare callable for loops that checked the dimension once:
        ``w @ A`` itself, with no array conversion and no check. At dim 1 the
        trajectory loops step Python floats, so there it also takes a float
        and returns one."""
        if self.dim != 1:
            return self._matrix.__rmatmul__
        # One coordinate: w @ A is the single product w * a summed onto 0.0,
        # and the + 0.0 turns a -0.0 product into +0.0 as that sum does. It
        # takes a float or an (m, 1) array, bit for bit as w @ A.
        a = float(self._matrix[0, 0])
        return lambda w: w * a + 0.0

    def row_values(self, ws):
        """``value(ws[i])`` for every row of an (n, dim) array, bit for bit: the
        reference the trajectory loops' recorded potentials are tested against.

        Stacked vector-matrix products take the same BLAS kernel as a single
        point; a plain ws @ A takes the matrix-matrix kernel, whose summation
        order moves the last bits of dense rows.
        """
        return _potential(ws, (ws[:, None, :] @ self._matrix)[:, 0, :])

    # The trajectory loops and the ensemble take their recorded potentials from
    # this, with the gradient their step already holds.
    value_from_gradient = staticmethod(_potential)

    def __repr__(self):
        if np.array_equal(self._matrix, np.eye(self.dim)):
            return f"QuadraticLandscape(identity, dim={self.dim})"
        return f"QuadraticLandscape(matrix={self._matrix.tolist()})"


def quadratic_isotropic(dim: int) -> QuadraticLandscape:
    """The identity-curvature bowl L(w) = 1/2 ||w||^2."""
    if dim < 1:
        raise InvalidArgument(f"dimension must be >= 1, got {dim}")
    try:
        identity = np.eye(dim)
    except ValueError:  # more floats than an array can index
        raise InvalidArgument(f"dimension {dim} is too large for a matrix") from None
    return QuadraticLandscape(identity)


def quadratic_general(matrix: np.ndarray) -> QuadraticLandscape:
    """General PSD quadratic; the caller must supply an exactly symmetric matrix."""
    return QuadraticLandscape(matrix)


_ISO_NAME = re.compile(r"^iso(\d+)d$")


def landscape_from_name(name: str) -> QuadraticLandscape:
    """Build a landscape from a compact name.

    ``iso1d``, ``iso2d``, ... give identity-curvature bowls; ``diag:1,4``
    gives a diagonal quadratic with the listed curvatures.
    """
    m = _ISO_NAME.match(name)
    if m:
        return quadratic_isotropic(int(m.group(1)))
    if name.startswith("diag:"):
        body = name[len("diag:"):]
        try:
            entries = [float(x) for x in body.split(",") if x.strip() != ""]
        except ValueError:
            raise InvalidArgument(f"bad diagonal entries in landscape name {name!r}")
        if not entries:
            raise InvalidArgument(f"no diagonal entries in landscape name {name!r}")
        return quadratic_general(np.diag(entries))
    raise InvalidArgument(
        f"unknown landscape {name!r} (expected iso<N>d or diag:<d1,d2,...>)"
    )
