"""Analytic loss surfaces with exact gradients.

Every landscape here is a polynomial, so values are finite for all finite
inputs and gradients are exact. ``value`` and ``gradient`` broadcast over
leading axes: passing an array of shape ``(m, dim)`` evaluates m points at
once, which the batched ensemble runner relies on.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, NumericalFailure

__all__ = [
    "LossLandscape",
    "QuadraticLandscape",
    "quadratic_isotropic",
    "quadratic_general",
    "check_gradient",
    "landscape_from_name",
]


_CUT_COLUMNS = 64  # QuadraticLandscape.column_cut falls on a multiple of this many columns


class LossLandscape(ABC):
    """Differentiable scalar field L(w) together with its exact gradient."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Number of coordinates of the parameter vector."""

    @abstractmethod
    def value(self, w: np.ndarray) -> float | np.ndarray:
        """Loss at ``w``; scalar for a single point, array for a batch."""

    @abstractmethod
    def gradient(self, w: np.ndarray) -> np.ndarray:
        """Exact gradient at ``w``, same shape as ``w``."""

    def raw_gradient(self):
        """``gradient`` as a bare callable for loops that checked the dimension once.

        It returns the same bits as ``gradient``; a subclass may skip the
        per-call conversion and checks. At dim 1 the trajectory loops step
        Python floats, so the callable also takes a float and returns one.
        """
        if self.dim != 1:
            return self.gradient
        gradient = self.gradient

        def raw(w):
            if isinstance(w, np.ndarray):
                return gradient(w)
            return float(gradient(np.array([w]))[0])
        return raw

    def row_values(self, ws: np.ndarray) -> np.ndarray:
        """``value(ws[i])`` for every row of an (n, dim) array.

        The default is the batched ``value``; a subclass whose batched
        arithmetic differs from its single-point arithmetic overrides this
        so the rows agree bit for bit.
        """
        return self.value(ws)

    def value_from_gradient(self, w: np.ndarray, gw: np.ndarray) -> np.ndarray:
        """The value at each row of ``w`` (shape (..., dim)), given ``gw``, the
        gradient there as ``raw_gradient`` gives it.

        The trajectory loops and the ensemble take their recorded potentials
        from this, with the gradient their step already holds. The default
        ignores ``gw`` and returns ``row_values(w)``; a subclass whose value
        follows from its gradient overrides it, with the same bits.
        """
        return self.row_values(w)


class QuadraticLandscape(LossLandscape):
    """L(w) = 1/2 w^T A w for a symmetric positive-semidefinite matrix A."""

    def __init__(self, matrix: np.ndarray):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidArgument(f"curvature matrix must be square, got shape {a.shape}")
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

    def value(self, w):
        w = np.asarray(w, dtype=float)
        self._check_dim(w)
        # w @ A works for both single points and (m, dim) batches since A is
        # symmetric.
        return 0.5 * np.sum((w @ self._matrix) * w, axis=-1)

    def gradient(self, w):
        w = np.asarray(w, dtype=float)
        self._check_dim(w)
        return w @ self._matrix

    def raw_gradient(self):
        # w @ A itself: no array conversion, no dimension check
        if self.dim != 1:
            return self._matrix.__rmatmul__
        # One coordinate: w @ A is the single product w * a summed onto 0.0,
        # and the + 0.0 turns a -0.0 product into +0.0 as that sum does. It
        # takes a float or an (m, 1) array, bit for bit as w @ A.
        a = float(self._matrix[0, 0])
        return lambda w: w * a + 0.0

    @cached_property
    def column_cut(self) -> int | None:
        """A column ``c`` at which ``w @ A`` may be computed as two blocks, or None.

        ``c`` is half the columns rounded down to a multiple of _CUT_COLUMNS, and the
        blocks ``w @ A[:, :c]`` and ``w @ A[:, c:]`` each come from a
        contiguous copy of their columns. Each output column is its own dot
        product, so the joined blocks are ``w @ A`` bit for bit wherever the
        BLAS kernel sums a block's columns as it sums the whole matrix's.
        That is checked once, on a probe vector with no zero entries (a
        one-hot vector would give the same bits in any summation order), and
        the verdict is kept: None where the bits differ or ``c`` is 0.
        """
        cut = self.dim // (2 * _CUT_COLUMNS) * _CUT_COLUMNS
        if cut == 0:
            return None
        probe = np.sin(np.arange(1.0, self.dim + 1.0))
        blocks = (probe @ np.ascontiguousarray(self._matrix[:, :cut]),
                  probe @ np.ascontiguousarray(self._matrix[:, cut:]))
        return cut if np.concatenate(blocks).tobytes() == (probe @ self._matrix).tobytes() else None

    def row_values(self, ws):
        """The reference the trajectory loops' recorded potentials are tested against.

        Stacked vector-matrix products take the same BLAS kernel as a single
        point; a plain ws @ A takes the matrix-matrix kernel, whose summation
        order moves the last bits of dense rows.
        """
        return 0.5 * np.sum((ws[:, None, :] @ self._matrix)[:, 0, :] * ws, axis=-1)

    def value_from_gradient(self, w, gw):
        # L(w) = 1/2 w . (w @ A): row_values' arithmetic, on the step's own w @ A
        return 0.5 * np.sum(gw * w, axis=-1)

    def _check_dim(self, w: np.ndarray):
        if w.shape[-1] != self.dim:
            raise InvalidArgument(
                f"point has dimension {w.shape[-1]}, landscape expects {self.dim}"
            )

    def __repr__(self):
        if np.array_equal(self._matrix, np.eye(self.dim)):
            return f"QuadraticLandscape(identity, dim={self.dim})"
        return f"QuadraticLandscape(matrix={self._matrix.tolist()})"


def quadratic_isotropic(dim: int) -> QuadraticLandscape:
    """The identity-curvature bowl L(w) = 1/2 ||w||^2."""
    if dim < 1:
        raise InvalidArgument(f"dimension must be >= 1, got {dim}")
    return QuadraticLandscape(np.eye(dim))


def quadratic_general(matrix: np.ndarray) -> QuadraticLandscape:
    """General PSD quadratic; the caller must supply an exactly symmetric matrix."""
    return QuadraticLandscape(matrix)


def check_gradient(landscape: LossLandscape, w: np.ndarray, fd_step: float = 1e-5) -> float:
    """Max relative error between analytic gradient and central differences.

    The error for coordinate i is |g_i - fd_i| / max(1, |g_i|); the maximum
    over coordinates is returned. Raises NumericalFailure if the loss is
    non-finite at any perturbed point.
    """
    if fd_step <= 0:
        raise InvalidArgument(f"fd_step must be positive, got {fd_step}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidArgument("point must be finite")
    analytic = landscape.gradient(w)
    worst = 0.0
    for i in range(landscape.dim):
        e = np.zeros(landscape.dim)
        e[i] = fd_step
        plus = landscape.value(w + e)
        minus = landscape.value(w - e)
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericalFailure(f"loss not finite near coordinate {i} of {w!r}")
        fd = (plus - minus) / (2.0 * fd_step)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


_ISO_NAME = re.compile(r"^iso(\d+)d$")


def landscape_from_name(name: str) -> LossLandscape:
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
