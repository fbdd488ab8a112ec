"""Axisymmetric vortex profiles with nonzero winding for the ungauged field.

The phase winds ell times around the symmetry axis, adding the
centrifugal energy ell^2 u^2 / (2 r^2); finiteness forces the amplitude
to vanish on the axis, handled as a Dirichlet condition that also
sidesteps the coordinate singularity.  ``AxisymGrid`` carries the (r, z)
geometry with cylindrical measure 2 pi r dr dz under the same members as
``grid.RadialGrid``, plus the centrifugal potential ell^2/r^2.  The energy,
its first variation and the residual are those of ``functionals`` with that
potential, and ``minimize._solve`` runs the same projected preconditioned
descent; the charge constraint eliminates the frequency exactly as in the
radial problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .grid import Profile, Tridiagonal, TridiagonalFactor, trapezoid_weights, weighted_sum
from .minimize import SolitonResult, SolveOptions, _solve
from .model import NonlinearSpec

TWO_PI = 2.0 * np.pi
# rows per block of the preconditioner's sine transform: at n_z = 288 the
# zero-padded block and its complex transform take about 0.3 MB each and
# stay in a 2 MB L2 cache; transforming all 575 rows of a 576 x 288 grid at
# once measured 6 to 50 % slower per solve on a 2-vCPU Xeon VM
SINE_BLOCK = 64


@dataclass(frozen=True)
class AxisymGrid:
    """Uniform (r, z) grid on [0, r_max] x [-z_max, z_max]."""

    r_max: float
    z_max: float
    n_r: int
    n_z: int

    def __post_init__(self):
        if not (0 < self.r_max < np.inf and 0 < self.z_max < np.inf):
            raise ValueError(f"domain extents must be positive and finite, got r_max = {self.r_max}, "
                             f"z_max = {self.z_max}")
        if not all(isinstance(n, Integral) and n >= 16 for n in self.cells):
            raise ValueError(f"axisymmetric grid needs an integer count of at least 16 cells per direction, "
                             f"got n_r = {self.n_r!r}, n_z = {self.n_z!r}")
        r = float(self.r_max)  # Python floats overflow to inf without a warning
        h_r, h_z = r / self.n_r, 2.0 * float(self.z_max) / self.n_z
        # the geometry runs from the stencil's 1/h^2 and the node volume
        # 2 pi h_r^2 h_z next to the axis, both in range while the smaller
        # spacing cubed is a normal float, to the volume weight 2 pi r_max h_r h_z
        # and the face weights 2 pi r_max h_z / h_r and 2 pi r_max h_r / h_z
        h = min(h_r, h_z)
        if not (np.finfo(float).tiny <= h * h * h and TWO_PI * r * h_r * h_z < np.inf
                and TWO_PI * r * (h_z / h_r + h_r / h_z) < np.inf):
            raise ValueError(f"r_max = {r!r} and z_max = {self.z_max!r} on {self.n_r} x {self.n_z} "
                             "cells give a grid geometry outside float range")

    @property
    def h_r(self) -> float:
        return self.r_max / self.n_r

    @property
    def h_z(self) -> float:
        return 2.0 * self.z_max / self.n_z

    @property
    def cells(self) -> tuple[int, int]:
        """Cell counts in r and z."""
        return (self.n_r, self.n_z)

    @property
    def domain(self) -> tuple[float, float]:
        """The extents that fix the domain; a resampled profile keeps them."""
        return (self.r_max, self.z_max)

    def coarsen(self, factor: int) -> "AxisymGrid":
        """The grid with n_r // factor by n_z // factor cells on the same domain."""
        return AxisymGrid(self.r_max, self.z_max, self.n_r // factor, self.n_z // factor)

    @cached_property
    def r(self) -> np.ndarray:
        out = np.linspace(0.0, self.r_max, self.n_r + 1)
        out.setflags(write=False)
        return out

    @cached_property
    def z(self) -> np.ndarray:
        out = np.linspace(-self.z_max, self.z_max, self.n_z + 1)
        out.setflags(write=False)
        return out

    @cached_property
    def volume_weights(self) -> np.ndarray:
        """Trapezoid x trapezoid weights times 2 pi r (volume measure)."""
        wr = trapezoid_weights(self.n_r, self.h_r)
        wz = trapezoid_weights(self.n_z, self.h_z)
        w = TWO_PI * (wr * self.r)[:, None] * wz[None, :]
        w.setflags(write=False)
        return w

    @cached_property
    def r_face_weights(self) -> np.ndarray:
        """Weights 2 pi r_{i+1/2} w_z / h_r of squared differences across r-faces."""
        r_face = self.r[:-1] + 0.5 * self.h_r
        wz = trapezoid_weights(self.n_z, self.h_z)
        f = TWO_PI * r_face[:, None] * wz[None, :] / self.h_r
        f.setflags(write=False)
        return f

    @cached_property
    def z_face_weights(self) -> np.ndarray:
        """Weights 2 pi w_r r / h_z of squared differences across z-faces."""
        wr = trapezoid_weights(self.n_r, self.h_r)
        f = np.repeat(TWO_PI * (wr * self.r)[:, None] / self.h_z, self.n_z, axis=1)
        f.setflags(write=False)
        return f

    def integrate(self, samples: np.ndarray) -> float:
        """Integral of an axisymmetric integrand over R^3 (trapezoid in r and z, measure 2 pi r)."""
        samples = np.asarray(samples)
        if samples.shape != (self.n_r + 1, self.n_z + 1):
            raise ValueError("samples do not match the grid")
        return float(weighted_sum(self.volume_weights, samples, 1.0))

    def dirichlet(self, u: np.ndarray) -> float:
        """Integral of |grad u|^2 over squared face differences, the exact dual of ``laplacian``."""
        d_r, d_z = np.diff(u, axis=0), np.diff(u, axis=1)
        return float(weighted_sum(self.r_face_weights, d_r, d_r)) + float(weighted_sum(self.z_face_weights, d_z, d_z))

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Cylindrical five-point Laplacian (1/r)(r u_r)_r + u_zz, interior only.

        Face-weighted flux differences divided by the volume weights, so that
        summation by parts against ``dirichlet`` holds to round-off.
        """
        flux_r = self.r_face_weights * np.diff(u, axis=0)
        flux_z = self.z_face_weights * np.diff(u, axis=1)
        out = np.zeros_like(u)
        out[1:-1, 1:-1] = ((flux_r[1:, 1:-1] - flux_r[:-1, 1:-1]) + (flux_z[1:-1, 1:] - flux_z[1:-1, :-1])
                           ) / self.volume_weights[1:-1, 1:-1]
        return out

    def zero_boundary(self, v: np.ndarray) -> np.ndarray:
        """Zero v in place on the axis and the outer boundary, its Dirichlet nodes, and return it."""
        v[0, :] = v[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        return v

    def centrifugal(self, ell: int) -> np.ndarray:
        """The potential ell^2/r^2 as a column over r; 0 on the axis, where winding profiles vanish."""
        fac = np.zeros((self.n_r + 1, 1))
        fac[1:, 0] = 1.0 / self.r[1:] ** 2
        return ell**2 * fac

    def preconditioner(self, ell: int) -> "AxisymPreconditioner":
        """(I - lap + ell^2/r^2) on the interior, factored once for a whole descent."""
        return AxisymPreconditioner(self, ell)


@dataclass
class AxisymProfile(Profile):
    """Nonnegative amplitude on an AxisymGrid winding ``winding`` times around
    the axis, a nonzero integer, zero on the axis and the outer boundary."""

    winding: int

    def __post_init__(self):
        # e^{i ell theta} is single-valued only for an integer ell
        if not isinstance(self.winding, Integral):
            raise ValueError(f"the winding must be an integer, got {self.winding!r}")
        if self.winding == 0:
            raise ValueError("an axisymmetric profile needs a nonzero winding; winding 0 is the radial problem")
        super().__post_init__()


def torus_bump(grid: AxisymGrid, amplitude: float, r0: float, width: float,
               winding: int) -> AxisymProfile:
    """Gaussian torus initial guess centered at radius r0 in the z = 0 plane.

    The amplitude, r0 and width must be finite and the width positive;
    ``AxisymProfile`` checks the winding.
    """
    if not (np.isfinite([amplitude, r0, width]).all() and width > 0):
        raise ValueError(f"torus needs a finite amplitude and r0 and a finite positive width, "
                         f"got {amplitude!r}, {r0!r}, {width!r}")
    rr = grid.r[:, None]
    zz = grid.z[None, :]
    v = amplitude * np.exp(-((rr - r0) ** 2 + zz**2) / width**2)
    return AxisymProfile(grid, grid.zero_boundary(v), winding)


class AxisymPreconditioner:
    """Solve of (I - lap + ell^2/r^2) x = g on the interior unknowns.

    On interior rows the z-trapezoid weight is h_z, so the r-couplings of
    the five-point stencil do not depend on z and row i couples in z by the
    constant t_i (Dirichlet second difference).  DST-I in z, which
    ``sine_transform`` computes on numpy.fft, diagonalizes that coupling;
    mode k leaves the r-tridiagonal A_r + t mu_k with
    mu_k = 2 - 2 cos(k pi / n_z).  All modes are factored once as one
    block-diagonal tridiagonal system (Buzbee, Golub & Nielson 1970;
    Swarztrauber 1977).  The coefficients are those of
    ``AxisymGrid.laplacian``, so this is the same operator to round-off.
    """

    def __init__(self, grid: AxisymGrid, ell: int):
        nr, nz = grid.n_r - 1, grid.n_z - 1  # interior unknowns per direction
        cw = grid.volume_weights[1:-1, 1]
        up_r = grid.r_face_weights[1:, 1] / cw
        dn_r = grid.r_face_weights[:-1, 1] / cw
        t_z = grid.z_face_weights[1:-1, 1] / cw
        mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nz + 1) / grid.n_z)
        # unknowns are numbered r-fastest within each z-mode; no coupling across modes
        bands = np.zeros((3, nz, nr))  # row i's coupling to i - 1, its diagonal, its coupling to i + 1
        bands[0, :, 1:] = -dn_r[1:]
        bands[1] = (1.0 + up_r + dn_r + grid.centrifugal(ell)[1:-1, 0]) + mu[:, None] * t_z
        bands[2, :, :-1] = -up_r[:-1]
        lower, diag, upper = bands.reshape(3, -1)
        self._factor = TridiagonalFactor(Tridiagonal(lower[1:], diag, upper[:-1]))
        self._shape = (nz, nr)
        # one block of z-rows of the sine transform, zero-padded to length
        # 2 n_z; only samples 1 ... n_z - 1 are ever written, the rest stays zero
        self._padded = np.zeros((min(SINE_BLOCK, nr), 2 * grid.n_z))

    def sine_transform(self, rows: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I of each row of ``rows``, shape (n_r - 1, n_z - 1).

        X_k = sqrt(2/n_z) sum_j x_j sin(pi j k / n_z) is -sqrt(2/n_z) times
        the imaginary part of the real FFT of the row placed at indices
        1 ... n_z - 1 of a zero row of length 2 n_z.  The rows go through
        the padded buffer SINE_BLOCK at a time.  The transform is its own
        inverse.
        """
        n_z = self._padded.shape[1] // 2
        out = np.empty(rows.shape)
        for i in range(0, len(rows), len(self._padded)):
            block = self._padded[:len(rows) - i]
            block[:, 1:n_z] = rows[i:i + len(block)]
            out[i:i + len(block)] = -np.sqrt(2.0 / n_z) * np.fft.rfft(block, axis=1).imag[:, 1:-1]
        return out

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Apply the inverse to the interior of g; the returned boundary is zero."""
        modes = self.sine_transform(g[1:-1, 1:-1])
        x = self._factor.solve(modes.T.ravel())
        out = np.zeros_like(g)
        out[1:-1, 1:-1] = self.sine_transform(x.reshape(self._shape).T)
        return out


def minimize_vortex(spec: NonlinearSpec, sigma: float, init: AxisymProfile,
                    opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the reduced energy over nonnegative profiles winding as ``init`` does:
    the solve of ``minimize_nlkg``, with the check that the start winds."""
    if not init.winding:
        raise ValueError("a vortex start must wind; winding 0 is the radial problem, use minimize_nlkg")
    return _solve(spec, sigma, init, opts)
