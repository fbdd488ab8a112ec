"""Direct time evolution of the radial field and localization diagnostics.

The second-order field equation psi_tt = lap psi - W'(|psi|) psi/|psi| is
integrated by the kick-drift-kick leapfrog (Stoermer-Verlet).  The scheme
is time symmetric and exactly phase covariant, so the discrete charge
Im <psi, psi_t> is conserved to round-off while the energy oscillates
within an O(dt^2) band around its initial value.  A free-field mode
replaces the force by the bare mass term and serves as the dispersion
control experiment.

Every run goes through one private kernel, ``_leapfrog``, which advances
a batch of runs on one grid with the grid's Laplacian matrix and the force
of ``model._power_sum``, both scaled by dt^2.  ``evolve_nlkg`` is a batch
of one; ``stability_experiment`` advances its four runs as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import RadialGrid, RadialProfile, weighted_sum
from .model import NonlinearSpec, _power_sum, eval_nonlinearity

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
        if not isinstance(self.grid, RadialGrid):
            # the leapfrog steps the radial Laplacian's matrix; a winding field has none
            raise ValueError(f"time evolution is radial: it needs a RadialGrid, not a {type(self.grid).__name__}")
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
    amplitude: list[float] = field(default_factory=list)  # max |psi|, the quantity the blow-up guard bounds

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(getattr(self, k))
                for k in ("t", "energy", "charge", "localization", "distance", "amplitude")}

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
    kinetic = 0.5 * grid.integrate(np.abs(state.psi_t) ** 2)
    gradient = 0.5 * grid.dirichlet(state.psi)
    amp = np.abs(state.psi)
    if free_field:
        potential = grid.integrate(0.5 * spec.mass**2 * amp**2)
    else:
        potential = grid.integrate(eval_nonlinearity(spec, amp, 0))
    return kinetic + gradient + potential


def field_charge(state: EvolutionState) -> float:
    return state.grid.integrate(np.imag(np.conj(state.psi) * state.psi_t))


def localization_fraction(state: EvolutionState, radius: float) -> float:
    """Mass fraction outside the ball of the given radius (zero field gives 0)."""
    if not 0.0 <= radius <= state.grid.r_max:
        raise ValueError(f"localization radius must lie in [0, r_max = {state.grid.r_max:g}], got {radius!r}")
    density = np.abs(state.psi) ** 2
    total = state.grid.integrate(density)
    if total == 0.0:
        return 0.0
    inside = density * (state.grid.nodes <= radius)
    return 1.0 - state.grid.integrate(inside) / total


def mass_radius(profile: RadialProfile, fraction: float = 0.99) -> float:
    """Smallest node radius enclosing the given mass fraction."""
    grid = profile.grid
    density = grid.volume_weights * profile.values**2
    cumulative = np.cumsum(density)
    if cumulative[-1] == 0.0:
        return 0.0
    idx = int(np.searchsorted(cumulative, fraction * cumulative[-1]))
    return float(grid.nodes[min(idx, grid.n)])


def soliton_radius(profile: RadialProfile) -> float:
    """Localization radius of a soliton's runs: twice its 99 % mass radius, capped at r_max."""
    return min(2.0 * mass_radius(profile), profile.grid.r_max)


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

    overlap = (complex(weighted_sum(vw, psi, u)) + complex(weighted_sum(gw, np.diff(psi), np.diff(u)))
               + 1j * omega0 * complex(weighted_sum(vw, psi_t, u)))
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    # norm of the difference field at the optimal phase; the closed form
    # norm_state + norm_ref - 2|overlap| cancels catastrophically on orbit
    d_psi = psi - phase * u
    d_v = psi_t + 1j * omega0 * phase * u
    d2 = (float(np.real(weighted_sum(vw, d_psi, np.conj(d_psi)))) + grid.dirichlet(d_psi)
          + float(np.real(weighted_sum(vw, d_v, np.conj(d_v)))))
    return float(np.sqrt(d2))


def cfl_margin(grid: RadialGrid, spec: NonlinearSpec, dt: float) -> float:
    """dt * sqrt(lambda_max(-lap) + m^2); the leapfrog is stable below 2.

    The decoupled origin row of the Laplacian gives its largest eigenvalue
    6/h^2 exactly; every other row's Gershgorin disc stays within 4/h^2.
    """
    return float(dt * np.sqrt(-grid.laplacian_matrix.diag[0] + spec.mass**2))


def step_plan(grid: RadialGrid, spec: NonlinearSpec, t_final: float, dt: float,
              record_every: int | None) -> tuple[int, int]:
    """Step count and record stride of a leapfrog run (None: about 256 records).

    Raises ValueError unless 0 < dt with ``cfl_margin < 2``, t_final is
    finite and spans a step, and ``record_every`` is at least 1.
    """
    if not (dt > 0.0 and cfl_margin(grid, spec, dt) < 2.0):
        raise ValueError("dt must be positive and below the leapfrog stability bound "
                         f"{2.0 / cfl_margin(grid, spec, 1.0):.6g}")
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise ValueError("t_final must be positive and finite")
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError(f"t_final must span at least one step dt = {dt:g}")
    if record_every is None:
        return n_steps, max(1, n_steps // 256)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    return n_steps, record_every


def check_delta(delta: float) -> None:
    """The stability ensemble scales the soliton by 1 + delta, which must leave a nonzero finite field."""
    if not (np.isfinite(delta) and delta > -1.0):
        raise ValueError(f"delta must be finite and above -1, got {delta}")


def _leapfrog(inits: list[EvolutionState], spec: NonlinearSpec, t_final: float, dt: float,
              record_every: int | None, localization_radius: float | None,
              reference: tuple[RadialProfile, float] | None,
              n_free: int) -> tuple[list[EvolutionState], list[EvolutionLedger]]:
    """Advance B runs on one grid together; row b is the run from ``inits[b]``.

    The fields are stored as X, U of shape (B, 2, n+1): real and imaginary
    rows of psi and of U = dt * psi_t.  With the dt^2-scaled acceleration
    A = dt^2 (lap psi - f psi), every step is one drift X += U and one full
    kick U += A, U holding the velocity at the half step.  At a record step
    the full kick splits into two half kicks with the record in between,
    so the ledger and the returned states see the synchronised
    (psi, psi_t).  Every pass is elementwise along the batch, so each row
    is bit-identical to the same run advanced alone.  The last ``n_free``
    rows are free-field runs, so the force is evaluated on the leading
    slice (a view) of forced rows only.
    """
    grid = inits[0].grid
    n_steps, record_every = step_plan(grid, spec, t_final, dt, record_every)
    if localization_radius is None:
        localization_radius = grid.r_max

    X = np.empty((len(inits), 2, grid.n + 1))
    U = np.empty_like(X)
    for b, init in enumerate(inits):
        X[b] = init.psi.real, init.psi.imag
        U[b] = init.psi_t.real, init.psi_t.imag
    # the outer node is pinned: its field, velocity and acceleration stay 0
    X[..., -1] = 0.0
    U[..., -1] = 0.0
    # |psi|^2 enters the force and |psi_t|^2 the energy; a finite field whose
    # squares overflow is a bad start, not a blow-up of the run
    with np.errstate(over="ignore"):
        if not all(np.isfinite(F[:, 0] ** 2 + F[:, 1] ** 2).all() for F in (X, U)):
            raise ValueError("initial fields must have finite squared moduli |psi|^2 and |psi_t|^2")
    U *= dt
    lower, diag, upper = (dt * dt * band for band in grid.laplacian_matrix)
    diag[-1] = lower[-1] = 0.0
    terms = tuple((dt * dt * coef, k) for coef, k in spec.power_terms())
    forced = len(inits) - n_free
    # diagonal factor diag - f of each row; a free row's f is the constant dt^2 m^2
    factor = np.empty((len(inits), grid.n + 1))
    factor[forced:] = diag - dt * dt * spec.mass**2
    A = np.empty_like(X)
    off = np.empty_like(X[..., 1:])
    # every step writes into buffers made once: a (4, 4097) array just exceeds
    # glibc's 128 KiB mmap threshold, so a fresh one would be mapped and
    # unmapped, and its pages faulted in, at every step
    amp = np.empty_like(factor)
    square = np.empty_like(factor)

    def accelerate():
        """Fill A from X, and amp with the amplitude |psi| of every node of every row."""
        np.multiply(X[:, 0], X[:, 0], out=square)
        np.multiply(X[:, 1], X[:, 1], out=amp)
        np.add(square, amp, out=amp)
        np.sqrt(amp, out=amp)
        np.subtract(diag, _power_sum(terms, amp[:forced], 1, 1.0), out=factor[:forced])
        np.multiply(factor[:, None], X, out=A)
        np.multiply(upper, X[..., 1:], out=off)
        A[..., :-1] += off
        np.multiply(lower, X[..., :-1], out=off)
        A[..., 1:] += off

    ledgers = [EvolutionLedger() for _ in inits]

    def states(step: int) -> list[EvolutionState]:
        return [EvolutionState(grid, x[0] + 1j * x[1], u[0] / dt + 1j * (u[1] / dt), init.t + step * dt)
                for x, u, init in zip(X, U, inits)]

    def record(step: int, amplitude: np.ndarray):
        for b, (state, ledger, peak) in enumerate(zip(states(step), ledgers, amplitude)):
            ledger.t.append(state.t)
            ledger.energy.append(field_energy(state, spec, b >= forced))
            ledger.charge.append(field_charge(state))
            ledger.localization.append(localization_fraction(state, localization_radius))
            ledger.distance.append(np.nan if reference is None else manifold_distance(state, *reference))
            ledger.amplitude.append(float(peak))

    accelerate()
    amplitude = amp.max(axis=1)
    guard = BLOWUP_FACTOR * np.maximum(amplitude, 1e-30)
    record(0, amplitude)
    A *= 0.5
    U += A
    passed = 0  # the step of the last record that passed the guard
    # a run that blows up overflows between two records; its inf and nan
    # fields then fail the guard at the next record, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            X += U
            accelerate()
            if step % record_every == 0 or step == n_steps:
                amplitude = amp.max(axis=1)
                # written so that a NaN amplitude trips the guard as well
                if not np.all(amplitude <= guard):
                    raise BlowUpError(f"amplitude exceeded {BLOWUP_FACTOR:g} times its initial scale "
                                      f"or stopped being finite between {passed * dt:g} (the last record "
                                      f"that passed) and {step * dt:g} time units into the run")
                passed = step
                A *= 0.5
                U += A
                record(step, amplitude)
            if step < n_steps:
                U += A

    return states(n_steps), ledgers


def evolve_nlkg(init: EvolutionState, spec: NonlinearSpec, t_final: float, dt: float,
                record_every: int | None = None, localization_radius: float | None = None,
                reference: tuple[RadialProfile, float] | None = None,
                free_field: bool = False) -> tuple[EvolutionState, EvolutionLedger]:
    """Leapfrog the field to t_final, recording conserved quantities.

    ``step_plan`` checks ``dt``, ``t_final`` and ``record_every``: dt must
    satisfy the leapfrog stability bound ``cfl_margin < 2``, dt < 2 /
    sqrt(lambda_max(-lap) + m^2), about 0.816 h on this grid because the
    origin row of the Laplacian carries 6/h^2.  The force is the smooth
    ratio W'(s)/s times psi, which extends continuously by the squared
    mass at zero amplitude; ``free_field`` replaces it by the bare mass
    term.  Raises ValueError if |psi|^2 or |psi_t|^2 of ``init`` overflows,
    and BlowUpError if the amplitude grows by six orders of
    magnitude or stops being finite.  The guard reads the amplitude only at
    the record steps, every ``record_every`` steps and the last, so a run
    that overflows in between steps on in inf and nan, without a
    floating-point warning, until the next record raises; the error names
    that window.
    """
    finals, ledgers = _leapfrog([init], spec, t_final, dt, record_every, localization_radius, reference,
                                int(free_field))
    return finals[0], ledgers[0]


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


def stability_experiment(profile: RadialProfile, omega: float, spec: NonlinearSpec, t_final: float,
                         dt: float, delta: float, record_every: int | None = None) -> StabilityResult:
    """Evolve a standing wave and three controls, and check time reversal.

    The runs are the soliton itself (``ledger``), the soliton scaled by
    1 + delta (``ledger_scaled``), the soliton plus a Gaussian bump of
    height delta at its half-mass radius (``ledger_bump``) and the free
    field from the soliton's data (``ledger_free``); each records its
    distance to the soliton's orbit and the mass outside
    ``soliton_radius``.  ``delta`` must be finite and above -1
    (``check_delta``).  The reversal error is the largest deviation from
    the initial field after evolving the time-reversed final state of the
    unperturbed run back for t_final.
    """
    check_delta(delta)
    base = soliton_state(profile, omega)  # rejects a non-radial profile first
    grid = profile.grid
    radius = soliton_radius(profile)
    bump = delta * np.exp(-((grid.nodes - mass_radius(profile, 0.5)) ** 2))
    bump[-1] = 0.0
    names = ["ledger", "ledger_scaled", "ledger_bump", "ledger_free"]
    starts = [base, EvolutionState(grid, (1.0 + delta) * base.psi, (1.0 + delta) * base.psi_t),
              EvolutionState(grid, base.psi + bump, base.psi_t), base]
    finals, ledgers = _leapfrog(starts, spec, t_final, dt, record_every, radius, (profile, omega), 1)
    # only the final state of the reversed run is needed: record its first and last steps alone
    back, _ = evolve_nlkg(time_reversed(finals[0]), spec, t_final, dt,
                          record_every=10**9, localization_radius=radius)
    return StabilityResult(dict(zip(names, ledgers)), finals[0], radius,
                           float(np.max(np.abs(back.psi - base.psi))))
