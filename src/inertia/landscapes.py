"""The quadratic loss L(w) = 1/2 w^T A w, the package's one landscape.

Its gradient w @ A is exact. ``value`` and ``gradient`` broadcast over
leading axes: passing an array of shape ``(m, dim)`` evaluates m points at
once, which the batched ensemble runner relies on.
"""

from __future__ import annotations

import re
from functools import cached_property

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "QuadraticLandscape",
    "quadratic_isotropic",
    "quadratic_general",
    "landscape_from_name",
]


_CUT_COLUMNS = 64  # QuadraticLandscape.column_cut falls on a multiple of this many columns


def _potential(w, gw):
    """L(w) = 1/2 w . gw at each row of ``w`` (shape (..., dim)), given ``gw``,
    the gradient w @ A there as ``raw_gradient`` gives it."""
    return 0.5 * np.sum(gw * w, axis=-1)


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
