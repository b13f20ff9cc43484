"""Composed experiments: detuning sweeps, power and temperature scans,
EIT transmission peak counting, and their CSV/metadata serialization.

Each sweep resolves a ScenarioConfig once into a level scheme, field
drives, light shifts, relaxation rates, and medium parameters. The probe
pathways do not depend on the probe detuning, so they are built once per
sweep, the susceptibilities of the whole grid come from one closed-form
evaluation, and the detection chain runs once on the resulting arrays.
Ground-state populations follow one of two policies: the default solves the
steady state once at two-photon resonance and reuses it across the sweep
(the line shapes then come entirely from the Doppler-averaged
denominators), while ``per_point`` takes the steady state at every detuning
for sensitivity studies. Both start from the superoperator assembled once at
two-photon resonance; ``per_point`` gets every detuning from its one
factorization plus a low-rank update, since the probe detuning moves only
the superoperator diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .atom import (
    COUPLING,
    LINEAR,
    MHZ,
    NO_STARK,
    PROBE,
    RABI_ANCHORS,
    SCHEME_IDS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    FieldDrive,
    LevelScheme,
    StarkShifts,
    Sublevel,
    build_level_scheme,
    coupling_polarization,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
)
from .detection import (
    TRACE_CSV_COLUMNS,
    DetectorSignals,
    JonesVector,
    detector_intensities,
    propagate_cell,
    recover_angle,
)
from .dynamics import (
    RelaxationRates,
    build_hamiltonian,
    build_liouvillian,
    level_index,
    probe_detuning_slope,
    steady_state_populations,
)
from .spectra import (
    CELL_LENGTH,
    SPECTRUM_CSV_COLUMNS,
    VAPOR_CURVE_RANGE_K,
    MediumParams,
    SusceptibilityPair,
    rotation_angle,
    susceptibility_arrays,
)

__all__ = [
    "NumericError",
    "ScenarioConfig",
    "SweepResult",
    "Peak",
    "PeakPair",
    "TransmissionCurve",
    "steady_populations",
    "sweep_probe_detuning",
    "find_dispersion_peaks",
    "check_powers",
    "sweep_coupling_power",
    "sweep_temperature",
    "eit_transmission",
    "count_transmission_peaks",
    "write_csv",
    "write_metadata",
    "POWER_SCAN_CSV_COLUMNS",
    "TEMP_SCAN_CSV_COLUMNS",
    "EIT_CSV_COLUMNS",
]

POWER_SCAN_CSV_COLUMNS = [
    "power_mw", "rabi_mhz",
    "left_detuning_mhz", "left_phi_deg",
    "right_detuning_mhz", "right_phi_deg",
]

TEMP_SCAN_CSV_COLUMNS = [
    "temperature_k", "density_m3",
    "left_detuning_mhz", "left_phi_deg",
    "right_detuning_mhz", "right_phi_deg",
    "max_abs_phi_deg",
]

EIT_CSV_COLUMNS = [
    "detuning_mhz", "transmission_sigma_minus", "transmission_sigma_plus",
]

_FLAT_TOL = 1e-12  # rad, see find_dispersion_peaks
_PROMINENCE_FRACTION = 0.02  # see count_transmission_peaks


class NumericError(Exception):
    """A run produced no usable result, like a scan step without dispersion
    peaks or a susceptibility that is not finite."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved inputs for one sweep. All frequencies in rad/s, the
    field ``b_field`` in tesla.

    Every rejected value raises ValueError with a message that starts with
    the name of its field.
    """

    scheme_id: str = "sigma_f2"
    probe_rabi: float = 10.0 * MHZ
    probe_polarization: str = LINEAR
    coupling_rabi: float = RABI_ANCHORS[COUPLING][1]  # at the 15 mW anchor
    coupling_detuning: float = 0.0
    detuning_min: float = -400.0 * MHZ
    detuning_max: float = 400.0 * MHZ
    points: int = 1201
    temperature: float = 328.15  # K, i.e. 55 C
    density: float | None = None  # m^-3; None follows the vapor-pressure curve
    cell_length: float = CELL_LENGTH
    b_field: float = 0.0
    stark_enabled: bool = True
    population_policy: str = "fixed"
    rates: RelaxationRates = field(default_factory=RelaxationRates)

    def __post_init__(self):
        if self.scheme_id not in SCHEME_IDS:
            raise ValueError(f"scheme_id must be one of {', '.join(SCHEME_IDS)}")
        if self.population_policy not in ("fixed", "per_point"):
            raise ValueError("population_policy must be 'fixed' or 'per_point'")
        if not self.points >= 2:
            raise ValueError("points must be at least 2")
        if not self.detuning_min < self.detuning_max:
            raise ValueError("detuning_max must be above detuning_min")
        for name in ("probe_rabi", "coupling_rabi"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.temperature > 0:
            raise ValueError("temperature must be above absolute zero")
        low, high = VAPOR_CURVE_RANGE_K
        if self.density is None and not low <= self.temperature <= high:
            raise ValueError(f"temperature must be within {low:g}-{high:g} K "
                             "when the density follows the vapor curve")
        if self.density is not None and not self.density > 0:
            raise ValueError("density must be > 0")
        if not self.cell_length > 0:
            raise ValueError("cell_length must be > 0")

    def scheme(self) -> LevelScheme:
        return build_level_scheme(self.scheme_id)

    def medium(self) -> MediumParams:
        return MediumParams.from_temperature(
            self.temperature,
            density=self.density,
            cell_length=self.cell_length,
        )

    def coupling_drive(self) -> FieldDrive:
        return FieldDrive(
            COUPLING,
            coupling_polarization(self.scheme_id),
            self.coupling_rabi,
            self.coupling_detuning,
        )

    def probe_drive(self, detuning: float) -> FieldDrive:
        return FieldDrive(PROBE, self.probe_polarization, self.probe_rabi, detuning)

    def stark(self, scheme: LevelScheme) -> StarkShifts:
        if not self.stark_enabled:
            return NO_STARK
        return stark_shifts(self.coupling_drive(), scheme)

    def detunings(self) -> np.ndarray:
        return np.linspace(self.detuning_min, self.detuning_max, self.points)


@dataclass(frozen=True)
class Peak:
    detuning: float  # rad/s
    phi: float  # rad


@dataclass(frozen=True)
class PeakPair:
    """Extremal rotation on each side of the central zero crossing."""

    left: Peak | None
    right: Peak | None

    @property
    def found(self) -> bool:
        return self.left is not None and self.right is not None


@dataclass(frozen=True)
class SweepResult:
    """Column-oriented record of one detuning sweep."""

    detunings: np.ndarray
    chi_minus: np.ndarray
    chi_plus: np.ndarray
    n_minus: np.ndarray
    n_plus: np.ndarray
    alpha_minus: np.ndarray
    alpha_plus: np.ndarray
    phi_exact: np.ndarray
    signals: DetectorSignals  # one array per detector, over the detunings
    metadata: dict

    def spectrum_rows(self):
        return zip(
            self.detunings / TWO_PI / 1e6,
            self.chi_minus.real, self.chi_minus.imag,
            self.chi_plus.real, self.chi_plus.imag,
            self.n_plus - self.n_minus,
            self.alpha_plus, self.alpha_minus,
            np.degrees(self.phi_exact),
        )

    def trace_rows(self):
        s = self.signals
        phi = np.degrees(recover_angle(s))
        return zip(
            self.detunings / TWO_PI / 1e6,
            s.d1 / s.i0, s.d2 / s.i0, s.d3 / s.i0, s.d4 / s.i0, phi,
        )


@dataclass(frozen=True)
class TransmissionCurve:
    detunings: np.ndarray
    transmission: np.ndarray
    component: str
    metadata: dict


def _ground_populations(
    cfg: ScenarioConfig,
    scheme: LevelScheme,
    coupling: FieldDrive,
    stark: StarkShifts,
    offsets: Sequence[float],
) -> dict[Sublevel, np.ndarray]:
    """Steady-state ground occupations with the probe detuned by each of
    ``offsets`` (rad/s) from two-photon resonance, one entry per offset.

    The superoperator is assembled once, at resonance; an offset only moves
    its diagonal (see ``probe_detuning_slope``), so one factorization serves
    every offset (see ``steady_state_populations``).
    """
    slope = probe_detuning_slope(scheme)
    probe = cfg.probe_drive(cfg.coupling_detuning)
    h = build_hamiltonian(scheme, probe, coupling, stark, cfg.b_field)
    lio = build_liouvillian(scheme, h, cfg.rates)
    pops = steady_state_populations(lio, slope, offsets)
    idx = level_index(scheme)
    return {s: pops[:, idx[s]] for s in scheme.ground()}


def steady_populations(cfg: ScenarioConfig) -> dict:
    """Ground-sublevel occupations from the full steady-state solve at
    two-photon resonance (probe detuning equal to the coupling detuning),
    the representative point for the fixed-population policy.
    """
    scheme = cfg.scheme()
    pops = _ground_populations(cfg, scheme, cfg.coupling_drive(),
                               cfg.stark(scheme), [0.0])
    return {s: float(v[0]) for s, v in pops.items()}


def sweep_probe_detuning(cfg: ScenarioConfig) -> SweepResult:
    scheme = cfg.scheme()
    coupling = cfg.coupling_drive()
    stark = cfg.stark(scheme)
    medium = cfg.medium()
    dets = cfg.detunings()

    # the metadata always reports the populations at two-photon resonance,
    # so that point is solved first under either policy
    per_point = cfg.population_policy == "per_point"
    offsets = [0.0, *(dets - cfg.coupling_detuning)] if per_point else [0.0]
    all_pops = _ground_populations(cfg, scheme, coupling, stark, offsets)
    meta_pops = {s: float(v[0]) for s, v in all_pops.items()}
    pops = {s: v[1:] for s, v in all_pops.items()} if per_point else meta_pops

    # pathways carry no probe detuning, so one set serves the whole grid
    probe = cfg.probe_drive(cfg.coupling_detuning)
    chi_m, chi_p = susceptibility_arrays(
        probe_pathways(scheme, probe, coupling, SIGMA_MINUS, stark),
        probe_pathways(scheme, probe, coupling, SIGMA_PLUS, stark),
        dets, coupling, cfg.rates, pops, medium, cfg.b_field,
    )
    bad = np.count_nonzero(~(np.isfinite(chi_m) & np.isfinite(chi_p)))
    if bad:
        raise NumericError(f"susceptibility not finite at {bad} of {dets.size} "
                           "detunings")

    pair = SusceptibilityPair.from_chis(chi_m, chi_p, medium)
    angle = rotation_angle(pair, medium)
    signals = detector_intensities(
        propagate_cell(JonesVector.linear(), pair, medium), 1.0)

    metadata = {
        "scheme": cfg.scheme_id,
        "populations": {scheme.label(s): v for s, v in meta_pops.items()},
        "population_policy": cfg.population_policy,
        "coupling_detuning_mhz": cfg.coupling_detuning / TWO_PI / 1e6,
        "density_m3": medium.density,
        "temperature_k": medium.temperature,
        "v_width_ms": medium.v_width,
    }
    return SweepResult(
        detunings=dets,
        chi_minus=chi_m, chi_plus=chi_p,
        n_minus=pair.n_minus, n_plus=pair.n_plus,
        alpha_minus=pair.alpha_minus, alpha_plus=pair.alpha_plus,
        phi_exact=angle.exact,
        signals=signals,
        metadata=metadata,
    )


def find_dispersion_peaks(result: SweepResult) -> PeakPair:
    """Extremal angle on each side of the zero crossing nearest resonance.

    Spectra whose largest |phi| sits below ``_FLAT_TOL`` (radians) carry no
    dispersion feature and give an empty pair, as do spectra that never
    change sign.
    """
    phi = result.phi_exact
    dets = result.detunings
    if np.max(np.abs(phi)) < _FLAT_TOL:
        return PeakPair(None, None)
    sign = np.sign(phi)
    nonzero = sign != 0
    crossings = np.flatnonzero(np.diff(sign[nonzero]) != 0)
    if len(crossings) == 0:
        return PeakPair(None, None)
    idx_nonzero = np.flatnonzero(nonzero)
    center = result.metadata.get("coupling_detuning_mhz", 0.0) * TWO_PI * 1e6
    mid = lambda c: 0.5 * (
        dets[idx_nonzero[c]] + dets[idx_nonzero[c + 1]]
    )
    central = min(crossings, key=lambda c: abs(mid(c) - center))
    split = idx_nonzero[central]
    left_half = np.abs(phi[: split + 1])
    right_half = np.abs(phi[split + 1:])
    i_left = int(np.argmax(left_half))
    i_right = split + 1 + int(np.argmax(right_half))
    return PeakPair(
        left=Peak(float(dets[i_left]), float(phi[i_left])),
        right=Peak(float(dets[i_right]), float(phi[i_right])),
    )


def check_powers(powers: Sequence[float]) -> None:
    """Raise ValueError unless the coupling powers of a scan are positive
    and ascending."""
    if not all(p > 0 for p in powers):
        raise ValueError("powers must be positive")
    if list(powers) != sorted(powers):
        raise ValueError("powers must be ascending")


def sweep_coupling_power(
    cfg: ScenarioConfig, powers: Sequence[float]
) -> list[tuple[float, float, PeakPair]]:
    """Per-power dispersion peaks: (power W, coupling Rabi rad/s, peaks)."""
    check_powers(powers)
    out = []
    for p in powers:
        rabi = rabi_from_power(p, COUPLING)
        sub = replace(cfg, coupling_rabi=rabi)
        peaks = find_dispersion_peaks(sweep_probe_detuning(sub))
        out.append((p, rabi, peaks))
    return out


def sweep_temperature(
    cfg: ScenarioConfig, temps: Sequence[float]
) -> list[tuple[float, SweepResult]]:
    """One full detuning sweep per cell temperature (kelvin).

    Temperature sets both the vapor density (calibrated curve) and the
    Maxwellian width; an explicit density in ``cfg`` is deliberately
    dropped so each point sits on the curve.
    """
    out = []
    for t in temps:
        sub = replace(cfg, temperature=t, density=None)
        out.append((t, sweep_probe_detuning(sub)))
    return out


def eit_transmission(cfg: ScenarioConfig, component: str) -> TransmissionCurve:
    """Probe transmission exp(-alpha d) for one circular component.

    The steady state is solved with the probe restricted to that component,
    matching a measurement where only one circular polarization enters.
    """
    if component not in (SIGMA_MINUS, SIGMA_PLUS):
        raise ValueError("component must be sigma_minus or sigma_plus")
    sub = replace(cfg, probe_polarization=component)
    result = sweep_probe_detuning(sub)
    alpha = result.alpha_minus if component == SIGMA_MINUS else result.alpha_plus
    transmission = np.exp(-alpha * sub.medium().cell_length)
    return TransmissionCurve(
        detunings=result.detunings,
        transmission=transmission,
        component=component,
        metadata=result.metadata,
    )


def count_transmission_peaks(curve: TransmissionCurve) -> int:
    """Number of local transmission maxima above a prominence floor.

    The floor is ``_PROMINENCE_FRACTION`` of the curve's peak-to-valley
    range, so the count is stable under grid refinement and immune to
    numerical ripple. A maximum's prominence is its height over the higher of the two lowest
    points between it and the nearest higher sample (or the end) on either
    side, as in ``scipy.signal.peak_prominences``.
    """
    t = curve.transmission
    span = float(np.max(t) - np.min(t))
    if span == 0.0:
        return 0
    floor = _PROMINENCE_FRACTION * span
    v = t[np.r_[True, t[1:] != t[:-1]]]  # a flat top counts once
    count = 0
    for i in np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1:
        higher = np.flatnonzero(v > v[i])
        before, after = higher[higher < i], higher[higher > i]
        left = v[before[-1] + 1 if before.size else 0:i].min()
        right = v[i + 1:after[0] if after.size else None].min()
        if v[i] - max(left, right) >= floor:
            count += 1
    return count


def _format_float(x: float) -> str:
    return f"{x:.9g}"


def write_csv(path, columns: Sequence[str], rows) -> None:
    """Write rows with fixed 9-significant-digit formatting, deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_float(float(x)) for x in row) + "\n")


def write_metadata(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
