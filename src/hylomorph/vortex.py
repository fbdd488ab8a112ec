"""Axisymmetric vortex profiles with nonzero winding for the ungauged field.

The phase winds ell times around the symmetry axis, adding the
centrifugal energy ell^2 u^2 / (2 r^2); finiteness forces the amplitude
to vanish on the axis, handled as a Dirichlet condition that also
sidesteps the coordinate singularity.  The charge constraint eliminates
the frequency exactly as in the radial problem, and the same projected
preconditioned descent runs on the (r, z) grid with cylindrical measure
2 pi r dr dz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dst
from scipy.linalg.lapack import dgttrf, dgttrs

from .functionals import charge_energy
from .grid import trapezoid_weights
from .minimize import InvariantError, SolitonResult, SolveOptions, descend, finalize_result
from .model import NonlinearSpec, eval_nonlinearity

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class AxisymGrid:
    """Uniform (r, z) grid on [0, r_max] x [-z_max, z_max]."""

    r_max: float
    z_max: float
    n_r: int
    n_z: int

    def __post_init__(self):
        if not (self.r_max > 0 and self.z_max > 0):
            raise ValueError("domain extents must be positive")
        if self.n_r < 16 or self.n_z < 16:
            raise ValueError("axisymmetric grid needs at least 16 cells per direction")

    @property
    def h_r(self) -> float:
        return self.r_max / self.n_r

    @property
    def h_z(self) -> float:
        return 2.0 * self.z_max / self.n_z

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
    def cell_weights(self) -> np.ndarray:
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


@dataclass
class AxisymProfile:
    """Nonnegative amplitude on an AxisymGrid, zero on the axis and boundary."""

    grid: AxisymGrid
    values: np.ndarray
    winding: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_r + 1, self.grid.n_z + 1):
            raise ValueError("value array does not match the grid")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.min(v) < -1e-9 * scale:
            raise ValueError("profile values must be nonnegative")
        edges = (np.abs(v[-1, :]).max(), np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max())
        if max(edges) > 1e-9 * scale:
            raise ValueError("profile must vanish on the outer boundaries")
        if self.winding != 0 and np.abs(v[0, :]).max() > 1e-9 * scale:
            raise ValueError("nonzero winding requires the amplitude to vanish on the axis")
        v = np.maximum(v, 0.0)
        v[-1, :] = 0.0
        v[:, 0] = 0.0
        v[:, -1] = 0.0
        if self.winding != 0:
            v[0, :] = 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def mass2(self) -> float:
        return integrate_axisym(self.grid, self.values**2)


def integrate_axisym(grid: AxisymGrid, samples: np.ndarray) -> float:
    samples = np.asarray(samples)
    if samples.shape != (grid.n_r + 1, grid.n_z + 1):
        raise ValueError("samples do not match the grid")
    return float(np.sum(grid.cell_weights * samples))


def axisym_gradient_pairing(grid: AxisymGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Discrete integral of grad a . grad b, the exact dual of axisym_laplacian."""
    return (float(np.sum(grid.r_face_weights * np.diff(a, axis=0) * np.diff(b, axis=0)))
            + float(np.sum(grid.z_face_weights * np.diff(a, axis=1) * np.diff(b, axis=1))))


def axisym_laplacian(grid: AxisymGrid, v: np.ndarray) -> np.ndarray:
    """Cylindrical five-point Laplacian (1/r)(r u_r)_r + u_zz, interior only.

    Face-weighted flux differences divided by the cell weights, so that
    summation by parts against axisym_gradient_pairing holds to round-off.
    """
    flux_r = grid.r_face_weights * np.diff(v, axis=0)
    flux_z = grid.z_face_weights * np.diff(v, axis=1)
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = ((flux_r[1:, 1:-1] - flux_r[:-1, 1:-1]) + (flux_z[1:-1, 1:] - flux_z[1:-1, :-1])
                       ) / grid.cell_weights[1:-1, 1:-1]
    return out


def centrifugal_factor(grid: AxisymGrid) -> np.ndarray:
    """1/r^2 with the axis masked (profiles vanish there)."""
    fac = np.zeros((grid.n_r + 1, 1))
    fac[1:, 0] = 1.0 / grid.r[1:] ** 2
    return fac


def torus_bump(grid: AxisymGrid, amplitude: float, r0: float, width: float,
               winding: int) -> AxisymProfile:
    """Gaussian torus initial guess centered at radius r0 in the z = 0 plane."""
    rr = grid.r[:, None]
    zz = grid.z[None, :]
    v = amplitude * np.exp(-((rr - r0) ** 2 + zz**2) / width**2)
    return AxisymProfile(grid, _zero_boundary(v), winding)


def _zero_boundary(v: np.ndarray) -> np.ndarray:
    """Zero v in place on the axis and the outer boundary, and return it."""
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return v


class AxisymPreconditioner:
    """Solve of (I - c lap + c ell^2/r^2) x = g on the interior unknowns.

    On interior rows the z-trapezoid weight is h_z, so the r-couplings of
    the five-point stencil do not depend on z and row i couples in z by the
    constant t_i (Dirichlet second difference).  DST-I in z diagonalizes
    that coupling; mode k leaves the r-tridiagonal A_r + t mu_k with
    mu_k = 2 - 2 cos(k pi / n_z).  All modes are factored once as one
    block-diagonal tridiagonal system (Buzbee, Golub & Nielson 1970;
    Swarztrauber 1977).  The coefficients are those of axisym_laplacian,
    so this is the same operator to round-off.
    """

    def __init__(self, grid: AxisymGrid, ell: int, c: float):
        nr, nz = grid.n_r - 1, grid.n_z - 1  # interior unknowns per direction
        cw = grid.cell_weights[1:-1, 1]
        up_r = c * grid.r_face_weights[1:, 1] / cw
        dn_r = c * grid.r_face_weights[:-1, 1] / cw
        t_z = c * grid.z_face_weights[1:-1, 1] / cw
        mu = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, nz + 1) / grid.n_z)
        diag = (1.0 + up_r + dn_r + c * ell**2 / grid.r[1:-1] ** 2) + mu[:, None] * t_z
        # unknowns are numbered r-fastest within each z-mode; no coupling across modes
        upper = np.zeros((nz, nr))
        upper[:, :-1] = -up_r[:-1]
        lower = np.zeros((nz, nr))
        lower[:, 1:] = -dn_r[1:]
        *self._factor, info = dgttrf(lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
        if info != 0:
            raise InvariantError(f"shifted axisymmetric operator is singular (dgttrf info {info})")
        self._shape = (nz, nr)

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Apply the inverse to the interior of g; the returned boundary is zero."""
        # DST-I with norm="ortho" is its own inverse
        modes = dst(g[1:-1, 1:-1], type=1, axis=1, norm="ortho")
        x, _ = dgttrs(*self._factor, modes.T.reshape(-1, 1), overwrite_b=1)
        out = np.zeros_like(g)
        out[1:-1, 1:-1] = dst(x.reshape(self._shape).T, type=1, axis=1, norm="ortho", overwrite_x=True)
        return out


def _vortex_operator(grid: AxisymGrid, v: np.ndarray, spec: NonlinearSpec, ell: int,
                     omega2: float) -> np.ndarray:
    """-lap v + W'(v) + (ell^2/r^2 - omega^2) v, zero on the axis and the outer boundary."""
    return _zero_boundary(-axisym_laplacian(grid, v) + eval_nonlinearity(spec, v, 1)
                          + (ell**2 * centrifugal_factor(grid) - omega2) * v)


def minimize_vortex(spec: NonlinearSpec, sigma: float, ell: int, init: AxisymProfile,
                    opts: SolveOptions | None = None) -> SolitonResult:
    """Minimize the reduced energy with winding ell over nonnegative profiles."""
    if ell == 0:
        raise ValueError("zero winding is the radial problem; use minimize_nlkg")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if init.mass2 <= 0.0:
        raise ValueError("initial profile must not vanish identically")
    opts = opts or SolveOptions()
    grid = init.grid
    ell2_over_r2 = ell**2 * centrifugal_factor(grid)
    preconditioner = AxisymPreconditioner(grid, ell, opts.precond)

    def project(v: np.ndarray) -> np.ndarray:
        return _zero_boundary(np.maximum(v, 0.0))

    def energy(v: np.ndarray) -> tuple[float, float]:
        mass2 = integrate_axisym(grid, v * v)
        dirichlet = axisym_gradient_pairing(grid, v, v) + integrate_axisym(grid, ell2_over_r2 * v * v)
        pot = integrate_axisym(grid, eval_nonlinearity(spec, v, 0))
        return 0.5 * dirichlet + pot + charge_energy(sigma, mass2), mass2

    def gradient(v: np.ndarray, mass2: float) -> np.ndarray:
        return _vortex_operator(grid, v, spec, ell, (sigma / mass2) ** 2)

    v, residual, iters, converged = descend(
        init.values, energy, gradient, project, grid.cell_weights, preconditioner.solve, opts)

    profile = AxisymProfile(grid, v, ell)
    e_sigma, mass2 = energy(profile.values)
    return finalize_result(profile, init, spec, sigma, e_sigma, mass2, residual, iters, converged,
                           winding=ell)


def vortex_residual(profile: AxisymProfile, omega: float, spec: NonlinearSpec) -> float:
    """Cylindrical L2 norm of the stationary vortex equation."""
    grid = profile.grid
    lhs = _vortex_operator(grid, profile.values, spec, profile.winding, omega**2)
    return float(np.sqrt(np.sum(grid.cell_weights * lhs**2)))


def vortex_observables(result: SolitonResult, ell: int | None = None) -> tuple[float, float]:
    """Charge and axial angular momentum; the latter is winding times charge."""
    ell = result.winding if ell is None else ell
    return result.charge, ell * result.charge
