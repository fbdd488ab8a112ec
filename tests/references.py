"""Closed forms and second evaluations that the tests compare the package against.

No code in ``hylomorph`` calls these; they are references, kept beside the
tests that use them.
"""

from dataclasses import dataclass

import numpy as np

from hylomorph.gauge import ScreenedPoisson
from hylomorph.grid import RadialProfile
from hylomorph.model import NonlinearSpec


@dataclass(frozen=True)
class TentQuadratures:
    mass2: float
    grad2: float
    remainder_int: float


def _ramp_moment(r: float, k: float) -> float:
    """Exact integral over the unit ramp of tau^k (r+1-tau)^2 dtau."""
    top = r + 1.0
    return top**2 / (k + 1.0) - 2.0 * top / (k + 2.0) + 1.0 / (k + 3.0)


def tent_quadratures(s1: float, r: float, spec: NonlinearSpec) -> TentQuadratures:
    """Closed-form integrals of the plateau-and-ramp profile.

    The profile equals s1 on |x| <= r, falls linearly to zero across a
    unit shell, and vanishes beyond; all three integrals reduce to exact
    polynomial (or power) moments.
    """
    if not (s1 > 0 and r > 0):
        raise ValueError("plateau amplitude and radius must be positive")
    four_pi = 4.0 * np.pi
    # integral over the shell of (r+1-t)^2 t^2 dt in closed form
    shell_mass = r**2 / 3.0 + r / 6.0 + 1.0 / 30.0
    mass2 = four_pi * s1**2 * (r**3 / 3.0 + shell_mass)
    grad2 = four_pi * s1**2 * ((r + 1.0) ** 3 - r**3) / 3.0
    ball = four_pi / 3.0 * r**3
    r_at_s1 = 0.0
    shell = 0.0
    for coef, k in spec.remainder_powers():
        r_at_s1 += coef * s1**k
        shell += coef * s1**k * _ramp_moment(r, k)
    remainder_int = r_at_s1 * ball + four_pi * shell
    return TentQuadratures(mass2=float(mass2), grad2=float(grad2), remainder_int=float(remainder_int))


def screened_mass_two_forms(u: RadialProfile, q: float) -> tuple[float, float]:
    """K evaluated as field energy (``ScreenedPoisson.mass``) and as screened source
    at the same phi_u; equal at the solution."""
    uu = u.values**2
    energy_form, phi = ScreenedPoisson(u.grid).mass(uu, q)
    return energy_form, u.grid.integrate((1.0 - q * phi.values) * uu)
