"""Radial discretization of spherically symmetric fields on a truncated domain.

A field u(|x|) on R^3 is sampled on the uniform grid r_i = i*h, i = 0..n,
h = r_max/n.  Volume integrals use the trapezoid rule weighted by 4*pi*r^2.
The Dirichlet form and the Laplacian are built from the same
first-difference fluxes, so summation by parts holds to round-off for
fields vanishing at both ends.  ``RadialGrid`` and ``vortex.AxisymGrid``
share the geometry members through which the functionals and the
minimizers are written once.
"""

from __future__ import annotations

import ctypes
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

FOUR_PI = 4.0 * np.pi


class InvariantError(AssertionError):
    """A guaranteed numerical invariant failed: a solver defect, not bad input.

    Raised explicitly so that ``python -O`` keeps the check.
    """


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid-rule weights of n uniform intervals of width h."""
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def weighted_sum(weights: np.ndarray, a: np.ndarray, b: np.ndarray | float) -> np.number:
    """The sum over all nodes of weights * a * b, real or complex.

    The one reduction behind every quadrature and inner product of the
    package.  The product a * b is formed once and weighted in place, and
    ``np.add.reduce`` sums it in numpy's fixed pairwise order, so a result
    keeps its bits on every CPU; a BLAS dot kernel picks its summation
    order by the CPU it runs on.
    """
    terms = a * b
    terms *= weights
    return np.add.reduce(terms.ravel())


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes on [0, r_max] including both endpoints."""

    r_max: float
    n: int

    def __post_init__(self):
        if not 0 < self.r_max < np.inf:
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")
        if not (isinstance(self.n, numbers.Integral) and self.n >= 16):
            raise ValueError(f"grid needs an integer n >= 16, got {self.n!r}")
        r = float(self.r_max)  # Python floats overflow to inf without a warning
        h = r / self.n
        # the geometry runs from the node mass h^3 at r_1 to h^2, r_max^2, the
        # volume weight 4 pi h r_max^2 and the flux r_max (r_max + h) / h of the
        # outer row; each must be a normal, finite float
        if not (np.finfo(float).tiny <= h * h * h and FOUR_PI * h * r * r < np.inf
                and r * (r + h) / h < np.inf):
            raise ValueError(f"r_max = {r!r} on {self.n} cells gives a grid geometry outside float range")

    @property
    def h(self) -> float:
        return self.r_max / self.n

    @property
    def cells(self) -> tuple[int]:
        """Cell count per direction."""
        return (self.n,)

    @property
    def domain(self) -> tuple[float]:
        """The extents that fix the domain; a resampled profile keeps them."""
        return (self.r_max,)

    def coarsen(self, factor: int) -> "RadialGrid":
        """The grid with n // factor cells on the same domain."""
        return RadialGrid(self.r_max, self.n // factor)

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.linspace(0.0, self.r_max, self.n + 1)
        r.setflags(write=False)
        return r

    @cached_property
    def volume_weights(self) -> np.ndarray:
        """Trapezoid weights for integrals of radial functions over R^3."""
        vw = FOUR_PI * trapezoid_weights(self.n, self.h) * self.nodes**2
        vw.setflags(write=False)
        return vw

    @cached_property
    def flux(self) -> np.ndarray:
        """Cell coefficients a_i = r_i r_{i+1} / h of the first-difference fluxes."""
        r = self.nodes
        a = r[:-1] * r[1:] / self.h
        a.setflags(write=False)
        return a

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        """Per-cell weights pairing first differences into the Dirichlet form."""
        gw = FOUR_PI * self.flux
        gw.setflags(write=False)
        return gw

    @cached_property
    def laplacian_matrix(self) -> "Tridiagonal":
        """The tridiagonal matrix of ``laplacian``.

        Row i divides the flux difference a_i (u_{i+1} - u_i) - a_{i-1} (u_i - u_{i-1})
        by the node mass h r_i^2.  The origin row is the regular limit
        3 u''(0) = 6 (u_1 - u_0) / h^2 with u'(0) = 0; the last row closes
        with a zero ghost value at r_max + h (Dirichlet continuation).
        """
        r = self.nodes
        h = self.h
        ghost = self.r_max * (self.r_max + h) / h
        mass = h * r[1:] ** 2
        above = np.append(self.flux[1:], ghost) / mass   # a_i / (h r_i^2)
        below = self.flux / mass                         # a_{i-1} / (h r_i^2)
        matrix = Tridiagonal(below, np.append(-6.0 / h**2, -(above + below)), np.append(6.0 / h**2, above[:-1]))
        for band in matrix:
            band.setflags(write=False)
        return matrix

    def _samples(self, samples: np.ndarray) -> np.ndarray:
        samples = np.asarray(samples)
        if samples.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} samples, got {samples.shape}")
        return samples

    def integrate(self, samples: np.ndarray) -> float:
        """Integral of a radial integrand over R^3 (trapezoid in r, weight 4*pi*r^2)."""
        return float(weighted_sum(self.volume_weights, self._samples(samples), 1.0))

    def dirichlet(self, u: np.ndarray) -> float:
        """Integral of |grad u|^2; supports complex fields."""
        d = np.diff(self._samples(u))
        return float(np.real(weighted_sum(self.gradient_weights, d, np.conj(d))))

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Second-order Laplacian u'' + (2/r) u' of a radial field.

        The origin uses the regular limit 3*u''(0) with u'(0) = 0; the outer
        node is closed with a zero ghost value (Dirichlet continuation).
        """
        return self.laplacian_matrix.apply(self._samples(u))

    def zero_boundary(self, v: np.ndarray) -> np.ndarray:
        """Zero v in place at the truncation node, its one Dirichlet node, and return it.

        The node is the last along the last axis, so a batch of fields of
        shape (..., n + 1) is pinned at once.
        """
        v[..., -1] = 0.0
        return v

    def shift(self, u: np.ndarray, cells: float) -> np.ndarray:
        """The radial shift u(max(r - delta, 0)) by delta = ``cells`` * h, as a new array.

        Linear interpolation between nodes, exact for a whole number of
        cells; zero past r_max.  A positive shift moves a wall outward and
        extends the value at the origin over r < delta; a negative one
        moves it inward.  The collective move of a thin-wall profile,
        whose energy barely changes as its wall slides (see ``minimize``).
        """
        x = np.maximum(np.arange(self.n + 1) - cells, 0.0)
        return np.interp(x, np.arange(self.n + 1), self._samples(u), right=0.0)

    def centrifugal(self, ell: int) -> float:
        """The centrifugal potential ell^2/r^2 of winding ell: 0, since a radial profile has winding 0."""
        if ell:
            raise ValueError(f"a radial profile has winding 0, not {ell}")
        return 0.0

    def preconditioner(self, ell: int = 0) -> "TridiagonalFactor":
        """(I - lap + ell^2/r^2) factored once for a whole descent; see ``centrifugal``."""
        lap = self.laplacian_matrix
        return TridiagonalFactor(Tridiagonal(-lap.lower, (1.0 + self.centrifugal(ell)) - lap.diag, -lap.upper))


@dataclass
class Profile:
    """Nonnegative samples on a grid, zero on its Dirichlet nodes; stored read-only.

    The one validation and resampling of ``RadialProfile`` and
    ``vortex.AxisymProfile``: the shape comes from ``grid.cells``, the
    samples must be finite, and negative values and values on the nodes
    that ``grid.zero_boundary`` pins are accepted, and zeroed, only at
    round-off level (1e-9 of the largest sample, or of 1).
    """

    grid: Any
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        shape = tuple(c + 1 for c in self.grid.cells)
        if v.shape != shape:
            raise ValueError(f"expected samples of shape {shape}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("profile samples must be finite")
        tol = 1e-9 * max(float(np.max(np.abs(v))), 1.0)
        if np.min(v) < -tol:
            raise ValueError("profile values must be nonnegative")
        clean = self.grid.zero_boundary(np.maximum(v, 0.0))
        if np.max(np.abs(v - clean)) > tol:
            raise ValueError("profile must vanish on the Dirichlet nodes of its grid")
        clean.setflags(write=False)
        object.__setattr__(self, "values", clean)

    @cached_property
    def mass2(self) -> float:
        """Integral of u^2 over R^3."""
        return self.grid.integrate(self.values**2)

    def resample(self, grid) -> "Profile":
        """Linear interpolation onto another grid of the same domain, along each axis in turn."""
        if grid.domain != self.grid.domain:
            raise ValueError("resampling needs a grid of the same domain")
        v = self.values
        for axis, n in enumerate(grid.cells):
            v = resample_linear(v, n, axis)
        return replace(self, grid=grid, values=v)


class RadialProfile(Profile):
    """Nonnegative radial matter amplitude on a RadialGrid, zero at the truncation radius."""

    winding = 0  # a spherically symmetric field has no phase winding


def resample_linear(values: np.ndarray, n: int, axis: int = 0) -> np.ndarray:
    """Linear interpolation of samples on uniform nodes onto n + 1 uniform nodes
    of the same interval along ``axis``.

    Node positions are taken in source-index units, j * n_src / n, which is
    exact wherever a target node falls on a source node, so shared nodes
    keep their values bit for bit.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n_src = v.shape[0] - 1
    x = np.arange(n + 1) * n_src / n
    i = np.minimum(x.astype(np.intp), n_src - 1)
    t = (x - i).reshape((-1,) + (1,) * (v.ndim - 1))
    return np.moveaxis((1.0 - t) * v[i] + t * v[i + 1], 0, axis)


class Tridiagonal(NamedTuple):
    """A tridiagonal matrix of order n as LAPACK's unpadded dl, d and du: ``lower``
    (n - 1 entries, row i + 1 at column i), ``diag`` (n) and ``upper`` (n - 1)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product of the matrix with x."""
        out = self.diag * x
        out[:-1] += self.upper * x[1:]
        out[1:] += self.lower * x[:-1]
        return out


def _bundled_lapack(numpy_dir: Path) -> ctypes.CDLL:
    """The ILP64 LAPACK of numpy's wheel, scipy-openblas64, which ``import numpy`` has loaded.

    ``numpy_dir`` is numpy's install directory; the wheels keep the library
    beside it in ``numpy.libs`` (Linux, Windows) or inside it in ``.dylibs``
    (macOS).  Any other numpy build raises ImportError naming the build.
    """
    build = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    libs = [lib for where in (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
            for lib in sorted(where.glob("libscipy_openblas64_*"))]
    if build.get("name") != "scipy-openblas" or not libs:
        raise ImportError(f"hylomorph needs a numpy wheel that bundles scipy-openblas64; numpy {np.__version__} "
                          f"at {numpy_dir} was built with LAPACK {build.get('name')!r} {build.get('version', '')}")
    return ctypes.CDLL(str(libs[0]))


_LAPACK = _bundled_lapack(Path(np.__file__).parent)
# Fortran subroutines: every argument by reference, integers int64 (ILP64), and
# dgttrs's character argument trans followed by its length as a size_t.  Each
# call passes prebuilt ctypes objects with no argtypes conversion, which costs
# microseconds a call; so every length is checked in Python before a pointer is made.
dgttrf = _LAPACK.scipy_dgttrf_64_  # (n, dl, d, du, du2, ipiv, info)
dgttrs = _LAPACK.scipy_dgttrs_64_  # (trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans))
dlagtm = _LAPACK.scipy_dlagtm_64_  # (trans, n, nrhs, alpha, dl, d, du, x, ldx, beta, b, ldb, len(trans))
dgttrf.restype = dgttrs.restype = dlagtm.restype = None
_TRANS, _TRANS_LEN = ctypes.c_char_p(b"N"), ctypes.c_size_t(1)  # no transpose
_ONE = ctypes.byref(ctypes.c_int64(1))
# dlagtm reads any alpha or beta other than 0 and +-1 as 0: B = 1 * T X + 0 * B
_ALPHA, _BETA = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0))


class TridiagonalFactor:
    """LU factor (LAPACK gttrf) of a ``Tridiagonal`` of order >= 3.

    Factored once at construction into one buffer dl | d | du | du2 and the
    pivots; every ``solve`` reuses it (gttrs) on a copy of its right-hand
    side, which it leaves untouched.  The matrix's bands are not modified.
    """

    def __init__(self, matrix: Tridiagonal):
        lower, diag, upper = (np.asarray(band) for band in matrix)
        n = len(diag)
        if not (diag.shape == (n,) and n >= 3 and lower.shape == upper.shape == (n - 1,)):
            raise ValueError(f"a tridiagonal factor needs bands of lengths n - 1, n >= 3 and n - 1, "
                             f"got shapes {lower.shape}, {diag.shape} and {upper.shape}")
        lu = np.empty(4 * n - 4)
        lu[:n - 1], lu[n - 1:2 * n - 1], lu[2 * n - 1:3 * n - 2] = lower, diag, upper
        start = ctypes.c_double.from_buffer(lu)
        bands = tuple(ctypes.byref(start, lu.itemsize * offset) for offset in (0, n - 1, 2 * n - 1, 3 * n - 2))
        pivots = ctypes.byref(ctypes.c_int64.from_buffer(np.empty(n, dtype=np.int64)))
        order, info = ctypes.byref(ctypes.c_int64(n)), ctypes.c_int64()
        dgttrf(order, *bands, pivots, ctypes.byref(info))
        if info.value != 0:
            raise InvariantError(f"tridiagonal matrix is singular (dgttrf info {info.value})")
        self._n = n
        # the byref objects hold the buffers they point into
        self._head = (_TRANS, order, _ONE, *bands, pivots)
        self._tail = (order, ctypes.byref(info), _TRANS_LEN)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.array(b, dtype=float)
        if x.shape != (self._n,):
            raise ValueError(f"expected a right-hand side of shape ({self._n},), got {x.shape}")
        dgttrs(*self._head, ctypes.byref(ctypes.c_double.from_buffer(x)), *self._tail)
        return x


class BatchTridiagonalProduct:
    """out[b] = T_b x[b] for every row b of a batch, one LAPACK lagtm call a row.

    The matrices T_b of order m share the off-diagonals ``lower`` and
    ``upper``, copied at construction, and T_b's diagonal is ``diags[b]``.
    ``x`` and ``out`` have shape (B, k, m): row b holds k vectors of length
    m, which lagtm takes as k right-hand sides.  ``diags``, ``x`` and
    ``out`` are held, not copied: each call reads the current values of
    the first two and overwrites the third through pointers made once
    here, so a call costs B LAPACK calls and no argument set-up.  Each row
    is its own call, so it keeps its bits whatever the other rows hold,
    and a NaN stays in its row.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray, diags: np.ndarray, x: np.ndarray, out: np.ndarray):
        if not all(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
                   and a.flags.writeable for a in (diags, x, out)):
            raise ValueError("diags, x and out must be writeable C-contiguous float64 arrays")
        bands = np.concatenate([np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)])
        m = diags.shape[1] if diags.ndim == 2 else 0
        if not (m >= 2 and x.ndim == 3 and x.shape[::2] == (len(diags), m) and x.shape[1] >= 1
                and out.shape == x.shape and np.shape(lower) == np.shape(upper) == (m - 1,)):
            raise ValueError(f"a batch product needs off-diagonals of length m - 1, diagonals (B, m) and x and "
                             f"out (B, k, m) with m >= 2 and k >= 1, got {np.shape(lower)}, {np.shape(upper)}, "
                             f"{diags.shape}, {x.shape} and {out.shape}")
        if np.shares_memory(out, x) or np.shares_memory(out, diags):
            raise ValueError("out must not overlap x or diags")  # lagtm zeroes out before it reads them

        def pointer(a: np.ndarray, offset: int = 0):
            # the byref object holds the buffer it points into
            return ctypes.byref(ctypes.c_double.from_buffer(a), a.itemsize * offset)

        order, nrhs = ctypes.byref(ctypes.c_int64(m)), ctypes.byref(ctypes.c_int64(x.shape[1]))
        dl, du = pointer(bands), pointer(bands, m - 1)
        self._rows = tuple((_TRANS, order, nrhs, _ALPHA, dl, pointer(d), du, pointer(xb), order, _BETA,
                            pointer(ob), order, _TRANS_LEN) for d, xb, ob in zip(diags, x, out))

    def __call__(self) -> None:
        for args in self._rows:
            dlagtm(*args)


def weighted_norm(grid, samples: np.ndarray) -> float:
    """Grid L^2 norm sqrt(integral of |f|^2 over R^3) on a RadialGrid or a vortex
    AxisymGrid; NaN if a sample is NaN."""
    samples = np.asarray(samples)
    return float(np.sqrt(np.real(weighted_sum(grid.volume_weights, samples, np.conj(samples)))))
