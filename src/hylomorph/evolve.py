"""Direct time evolution of the radial field and localization diagnostics.

The second-order field equation psi_tt = lap psi - W'(|psi|) psi/|psi| is
integrated by the kick-drift-kick leapfrog.  The scheme is time symmetric
and exactly phase covariant, so the discrete charge Im <psi, psi_t> is
conserved to round-off while the energy oscillates within an O(dt^2) band
around its initial value.  A free-field mode replaces the force by the
bare mass term and serves as the dispersion control experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import RadialGrid, RadialProfile, gradient_sq_integral, integrate_radial, radial_laplacian
from .model import NonlinearSpec, eval_nonlinearity, wprime_over_s

BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """Field norm exceeded the blow-up guard during evolution."""


@dataclass
class EvolutionState:
    """Complex matter field and its time derivative at one instant."""

    grid: RadialGrid
    psi: np.ndarray
    psi_t: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        psi_t = np.asarray(self.psi_t, dtype=complex)
        if psi.shape != (self.grid.n + 1,) or psi_t.shape != psi.shape:
            raise ValueError("field samples do not match the grid")
        if not (np.isfinite(psi).all() and np.isfinite(psi_t).all()):
            raise ValueError("field samples must be finite")
        self.psi = psi
        self.psi_t = psi_t


@dataclass
class EvolutionLedger:
    """Per-record conserved quantities and localization diagnostics."""

    t: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    charge: list[float] = field(default_factory=list)
    localization: list[float] = field(default_factory=list)
    distance: list[float] = field(default_factory=list)

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(getattr(self, k)) for k in ("t", "energy", "charge", "localization", "distance")}

    def drifts(self) -> dict[str, float]:
        """Largest relative energy and charge drift over the ledger, and its final localization."""
        arrays = self.arrays()
        e0, c0 = arrays["energy"][0], arrays["charge"][0]
        return {
            "energy_drift": float(np.max(np.abs(arrays["energy"] - e0)) / abs(e0)),
            "charge_drift": float(np.max(np.abs(arrays["charge"] - c0)) / abs(c0)),
            "final_localization": float(arrays["localization"][-1]),
        }


def soliton_state(profile: RadialProfile, omega: float) -> EvolutionState:
    """The standing-wave initial data (u, -i omega u) at t = 0."""
    return EvolutionState(profile.grid, profile.values.astype(complex),
                          -1j * omega * profile.values.astype(complex))


def field_energy(state: EvolutionState, spec: NonlinearSpec, free_field: bool = False) -> float:
    grid = state.grid
    kinetic = 0.5 * integrate_radial(grid, np.abs(state.psi_t) ** 2)
    gradient = 0.5 * gradient_sq_integral(grid, state.psi)
    amp = np.abs(state.psi)
    if free_field:
        potential = integrate_radial(grid, 0.5 * spec.mass**2 * amp**2)
    else:
        potential = integrate_radial(grid, eval_nonlinearity(spec, amp, 0))
    return kinetic + gradient + potential


def field_charge(state: EvolutionState) -> float:
    return integrate_radial(state.grid, np.imag(np.conj(state.psi) * state.psi_t))


def localization_fraction(state: EvolutionState, radius: float) -> float:
    """Mass fraction outside the ball of the given radius (zero field gives 0)."""
    if radius > state.grid.r_max:
        raise ValueError("localization radius exceeds the domain")
    density = np.abs(state.psi) ** 2
    total = integrate_radial(state.grid, density)
    if total == 0.0:
        return 0.0
    inside = density * (state.grid.nodes <= radius)
    return 1.0 - integrate_radial(state.grid, inside) / total


def mass_radius(profile: RadialProfile, fraction: float = 0.99) -> float:
    """Smallest node radius enclosing the given mass fraction."""
    grid = profile.grid
    density = grid.volume_weights * profile.values**2
    cumulative = np.cumsum(density)
    if cumulative[-1] == 0.0:
        return 0.0
    idx = int(np.searchsorted(cumulative, fraction * cumulative[-1]))
    return float(grid.nodes[min(idx, grid.n)])


def manifold_distance(state: EvolutionState, u0: RadialProfile, omega0: float) -> float:
    """Distance to the orbit of the reference standing wave.

    The metric is the H1 x L2 norm on (psi, psi_t), minimized in closed
    form over the global phase; translations are pinned to the origin by
    radial symmetry.
    """
    grid = state.grid
    if u0.grid is not grid and (u0.grid.n != grid.n or u0.grid.r_max != grid.r_max):
        raise ValueError("reference profile lives on an incompatible grid")
    vw = grid.volume_weights
    gw = grid.gradient_weights
    u = u0.values
    psi, psi_t = state.psi, state.psi_t

    overlap = (complex(vw @ (psi * u)) + complex(gw @ (np.diff(psi) * np.diff(u)))
               + 1j * omega0 * complex(vw @ (psi_t * u)))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    # norm of the difference field at the optimal phase; the closed form
    # norm_state + norm_ref - 2|overlap| cancels catastrophically on orbit
    d_psi = psi - phase * u
    d_v = psi_t + 1j * omega0 * phase * u
    d2 = (float(np.real(vw @ (d_psi * np.conj(d_psi)))) + gradient_sq_integral(grid, d_psi)
          + float(np.real(vw @ (d_v * np.conj(d_v)))))
    return float(np.sqrt(max(0.0, d2)))


def evolve_nlkg(
    init: EvolutionState,
    spec: NonlinearSpec,
    t_final: float,
    dt: float,
    record_every: int | None = None,
    localization_radius: float | None = None,
    reference: tuple[RadialProfile, float] | None = None,
    free_field: bool = False,
) -> tuple[EvolutionState, EvolutionLedger]:
    """Leapfrog the field to t_final, recording conserved quantities.

    ``dt`` must satisfy the leapfrog stability bound
    dt < 2 / sqrt(lambda_max(-lap) + m^2), about 0.816 h on this grid
    because the origin row of the Laplacian carries 6/h^2.  The force is
    the smooth ratio W'(s)/s times psi, which extends continuously by the
    squared mass at zero amplitude; ``free_field`` replaces it by the bare
    mass term.  Raises BlowUpError if the amplitude grows by six orders of
    magnitude or stops being finite.
    """
    grid = init.grid
    m2 = spec.mass**2
    # the decoupled origin row of the Laplacian gives its largest eigenvalue
    # 6/h^2 exactly; every other row's Gershgorin disc stays within 4/h^2
    dt_max = 2.0 / np.sqrt(-grid.laplacian_bands[1, 0] + m2)
    if not (0.0 < dt < dt_max):
        raise ValueError(f"dt must be positive and below the leapfrog stability bound {dt_max:.6g}")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    n_steps = int(round(t_final / dt))
    if record_every is None:
        record_every = max(1, n_steps // 256)
    elif record_every < 1:
        raise ValueError("record_every must be at least 1")
    if localization_radius is None:
        localization_radius = grid.r_max

    def force_factor(amp: np.ndarray) -> np.ndarray:
        if free_field:
            return np.full_like(amp, m2)
        return wprime_over_s(spec, amp)

    def accel(psi: np.ndarray) -> np.ndarray:
        a = radial_laplacian(grid, psi) - force_factor(np.abs(psi)) * psi
        a[-1] = 0.0
        return a

    psi = init.psi.copy()
    psi[-1] = 0.0
    v = init.psi_t.copy()
    ledger = EvolutionLedger()
    guard = BLOWUP_FACTOR * max(float(np.max(np.abs(psi))), 1e-30)

    def record(step: int):
        state = EvolutionState(grid, psi, v, init.t + step * dt)
        ledger.t.append(state.t)
        ledger.energy.append(field_energy(state, spec, free_field))
        ledger.charge.append(field_charge(state))
        ledger.localization.append(localization_fraction(state, localization_radius))
        if reference is not None:
            ledger.distance.append(manifold_distance(state, reference[0], reference[1]))
        else:
            ledger.distance.append(np.nan)

    record(0)
    a = accel(psi)
    for step in range(1, n_steps + 1):
        v_half = v + 0.5 * dt * a
        psi = psi + dt * v_half
        psi[-1] = 0.0
        a = accel(psi)
        v = v_half + 0.5 * dt * a
        if step % record_every == 0 or step == n_steps:
            # written so that a NaN amplitude trips the guard as well
            if not float(np.max(np.abs(psi))) <= guard:
                raise BlowUpError(f"amplitude exceeded {BLOWUP_FACTOR:g} times its initial scale "
                                  f"or stopped being finite at t={step * dt:g}")
            record(step)

    return EvolutionState(grid, psi, v, init.t + n_steps * dt), ledger


def time_reversed(state: EvolutionState) -> EvolutionState:
    """Flip the time derivative; evolving the result retraces the orbit."""
    return EvolutionState(state.grid, state.psi.copy(), -state.psi_t, state.t)


@dataclass
class StabilityResult:
    """The stability ensemble: one ledger per run, keyed by its artifact name."""

    ledgers: dict[str, EvolutionLedger]
    final: EvolutionState  # end of the unperturbed run
    localization_radius: float
    reversal_error: float


def stability_experiment(
    profile: RadialProfile,
    omega: float,
    spec: NonlinearSpec,
    t_final: float,
    dt: float,
    delta: float,
    record_every: int | None = None,
) -> StabilityResult:
    """Evolve a standing wave and three controls, and check time reversal.

    The runs are the soliton itself (``ledger``), the soliton scaled by
    1 + delta (``ledger_scaled``), the soliton plus a Gaussian bump of
    height delta at its half-mass radius (``ledger_bump``) and the free
    field from the soliton's data (``ledger_free``); each records its
    distance to the soliton's orbit and the mass outside
    min(2 * mass_radius, r_max).  The reversal error is the largest
    deviation from the initial field after evolving the time-reversed
    final state of the unperturbed run back for t_final.
    """
    grid = profile.grid
    radius = min(2.0 * mass_radius(profile), grid.r_max)
    base = soliton_state(profile, omega)
    bump = delta * np.exp(-((grid.nodes - mass_radius(profile, 0.5)) ** 2))
    bump[-1] = 0.0
    starts = {
        "ledger": (base, False),
        "ledger_scaled": (EvolutionState(grid, (1.0 + delta) * base.psi, (1.0 + delta) * base.psi_t), False),
        "ledger_bump": (EvolutionState(grid, base.psi + bump, base.psi_t.copy()), False),
        "ledger_free": (base, True),
    }
    ledgers: dict[str, EvolutionLedger] = {}
    finals: dict[str, EvolutionState] = {}
    for name, (init, free) in starts.items():
        finals[name], ledgers[name] = evolve_nlkg(
            init, spec, t_final, dt, record_every=record_every, localization_radius=radius,
            reference=(profile, omega), free_field=free)
    # only the final state of the reversed run is needed: record its first and last steps alone
    back, _ = evolve_nlkg(time_reversed(finals["ledger"]), spec, t_final, dt,
                          record_every=10**9, localization_radius=radius)
    return StabilityResult(ledgers, finals["ledger"], radius,
                           float(np.max(np.abs(back.psi - base.psi))))
