"""Composed experiments: detuning sweeps, power and temperature scans and
EIT transmission peak counting.

A sweep has two stages. The atom stage resolves a ScenarioConfig into
everything the cell temperature does not change: the level scheme, field
drives, light shifts, steady-state populations and probe pathways. The
medium stage takes the Doppler width and density from the temperature and
evaluates the susceptibilities and angle of a stack of sweeps on one grid:
a power scan runs one atom stage per power, a temperature scan one in all,
the EIT census one per circular probe, and each one medium stage. The probe
pathways carry no probe detuning, so one set serves a sweep's grid. A
stack's sweeps share one call of the closed-form kernel, which weights and
sums their pathways in blocks of detunings, and one readout pass. A
``SweepResult`` holds values only: its config, medium and populations at
two-photon resonance, for the ``sweep`` meta block that ``eitrot.cli``
builds, and rows of the stack's arrays, for a trace's detector signals.
Ground-state populations follow one of two policies: the default solves the
steady state once at two-photon resonance and reuses it across the sweep
(the line shapes then come entirely from the Doppler-averaged
denominators), while ``per_point`` takes the steady state at every detuning
for sensitivity studies. Both assemble and solve only the population block
of the superoperator at two-photon resonance (85 of 169 elements for the
linear probe); ``per_point`` gets every detuning from the block's one
factorization plus a low-rank update, since the probe detuning moves only
the superoperator diagonal. A population below ``-_RESIDUAL_TOL`` at any
solved detuning is not a density matrix and fails the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

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
    FieldDrive,
    LevelScheme,
    build_level_scheme,
    coupling_polarization,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
)
from .dynamics import (
    _RESIDUAL_TOL,
    NumericError,
    RelaxationRates,
    SteadyStateError,
    _evaluate,
    _population_record,
    build_hamiltonian,
)
from .spectra import (
    CELL_LENGTH,
    VAPOR_CURVE_RANGE_K,
    MediumParams,
    SusceptibilityPair,
    _exact_angle,
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
]

_FLAT_TOL = 1e-12  # rad, see find_dispersion_peaks
_PROMINENCE_FRACTION = 0.02  # see count_transmission_peaks
# The longest complex array numpy can describe (2**59 - 1 on 64-bit
# platforms): a longer detuning grid cannot hold a susceptibility.
_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(complex).itemsize


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
        if not self.points <= _MAX_POINTS:
            raise ValueError(f"points must be at most {_MAX_POINTS}")
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

    def stark(self, scheme: LevelScheme) -> Mapping[int, float]:
        if not self.stark_enabled:
            return NO_STARK
        return stark_shifts(self.coupling_drive(), scheme)

    def detunings(self) -> np.ndarray:
        return np.linspace(self.detuning_min, self.detuning_max, self.points)


class Peak(NamedTuple):
    detuning: float  # rad/s
    phi: float  # rad


class PeakPair(NamedTuple):
    """Extremal rotation on each side of the central zero crossing."""

    left: Peak | None
    right: Peak | None

    @property
    def found(self) -> bool:
        return self.left is not None and self.right is not None


class SweepResult(NamedTuple):
    """Column-oriented record of one detuning sweep."""

    detunings: np.ndarray
    pair: SusceptibilityPair  # one array per field, over the detunings
    medium: MediumParams
    phi_exact: np.ndarray
    cfg: ScenarioConfig  # the atom stage's; ``medium`` holds the medium
    populations: dict  # ground sublevel -> occupation at two-photon resonance


class TransmissionCurve(NamedTuple):
    detunings: np.ndarray
    transmission: np.ndarray


def steady_populations(cfg: ScenarioConfig) -> dict:
    """Ground-sublevel occupations from the steady-state solve at
    two-photon resonance (probe detuning equal to the coupling detuning),
    the representative point for the fixed-population policy.
    """
    return _atom_stage(replace(cfg, population_policy="fixed")).populations


class _Atom(NamedTuple):
    """What the atom stage of a sweep resolves: everything that the cell
    temperature and density leave unchanged."""

    cfg: ScenarioConfig
    paths: tuple[list, list]  # probe pathways, sigma-minus then sigma-plus
    populations: dict  # ground sublevel -> occupation, or one per detuning
    resonance: dict  # ground sublevel -> occupation at two-photon resonance


def _atom_stage(cfg: ScenarioConfig) -> _Atom:
    """The atom of ``cfg``; only the ``per_point`` policy reads its
    detuning grid."""
    scheme = cfg.scheme()
    coupling = cfg.coupling_drive()
    stark = cfg.stark(scheme)
    probe = cfg.probe_drive(cfg.coupling_detuning)

    # h is built at two-photon resonance, the point a sweep always
    # reports, so that point is solved first under either policy; its one
    # factorization serves every other detuning (see ``dynamics._factor``)
    h = build_hamiltonian(scheme, probe, coupling, stark, cfg.b_field)
    per_point = cfg.population_policy == "per_point"
    record, rows = _population_record(scheme, h, cfg.rates, per_point)
    x0 = record.x0[rows]
    _check_populations(scheme, x0[None], [cfg.coupling_detuning])
    idx, values = scheme.index, x0.tolist()
    pops = resonance = {s: values[idx[s]] for s in scheme.ground()}
    if per_point:
        dets = cfg.detunings()
        all_pops = _evaluate(record, dets - cfg.coupling_detuning, rows)
        _check_populations(scheme, all_pops, dets)
        pops = {s: all_pops[:, idx[s]] for s in resonance}

    # pathways carry no probe detuning, so one set serves the whole grid
    paths = [probe_pathways(scheme, probe, coupling, component, stark)
             for component in (SIGMA_MINUS, SIGMA_PLUS)]
    return _Atom(cfg, (*paths,), pops, resonance)


def _check_populations(scheme: LevelScheme, pops: np.ndarray, dets) -> None:
    """Raise ``SteadyStateError`` if a population (one row per detuning of
    ``dets``, one column per sublevel) lies below ``-_RESIDUAL_TOL``: the
    steady state is then not a density matrix."""
    # The least accepted population is the steady-state residual tolerance:
    # a population that is zero comes out as rounding (-0.0 at worst over the
    # tests), and the least ground population over the documented inputs is
    # +0.0215.
    if pops.min() < -_RESIDUAL_TOL:
        k, i = np.unravel_index(np.argmin(pops), pops.shape)
        raise SteadyStateError(
            "steady state is not a density matrix: population "
            f"{scheme.label(scheme.sublevels[i])} = {pops[k, i]:.1e} at "
            f"{dets[k] / MHZ:g} MHz")


def _medium_stage(pairs: Sequence[tuple[_Atom, MediumParams]]) -> list[SweepResult]:
    """The sweep of each (atom, medium) pair, in order, from one kernel call on
    the first atom's grid; the media must share a wavelength and a cell length."""
    first, shared = pairs[0][0].cfg, pairs[0][1]
    if len({(medium.wavelength, medium.cell_length) for _, medium in pairs}) > 1:
        raise ValueError("the media of a stack must share a wavelength and a cell length")
    dets = first.detunings()
    chi = susceptibility_arrays(
        [(*atom.paths, atom.populations, medium) for atom, medium in pairs],
        dets, first.coupling_detuning, first.rates, first.b_field)
    if not np.isfinite(chi).all():
        bad = np.count_nonzero(~np.isfinite(chi).all(axis=1), axis=1)
        raise NumericError(f"susceptibility not finite at {bad[bad > 0][0]} of "
                           f"{dets.size} detunings")
    stack = SusceptibilityPair.from_chis(chi[:, 0], chi[:, 1], shared)
    return [SweepResult(dets, SusceptibilityPair(*row), medium, phi, atom.cfg, atom.resonance)
            for (atom, medium), *row, phi in zip(pairs, *stack, _exact_angle(stack, shared))]


def sweep_probe_detuning(cfg: ScenarioConfig) -> SweepResult:
    """One detuning sweep: the medium stage of its atom stage. The medium is
    built first, so that one that cannot be built fails before any solve."""
    medium = cfg.medium()
    return _medium_stage([(_atom_stage(cfg), medium)])[0]


def find_dispersion_peaks(result: SweepResult) -> PeakPair:
    """Extremal angle on each side of the zero crossing nearest resonance.

    A crossing sits midway between neighbouring nonzero samples of opposite
    sign; ties go to the first crossing and the first extremum. Spectra
    whose largest |phi| sits below ``_FLAT_TOL`` (radians) carry no
    dispersion feature and give an empty pair, as do spectra that never
    change sign.
    """
    phi, dets = result.phi_exact, result.detunings
    size = np.abs(phi)
    (nonzero,) = phi.nonzero()
    sign = np.sign(phi[nonzero])
    (flips,) = (sign[1:] != sign[:-1]).nonzero()
    if size.max() < _FLAT_TOL or flips.size == 0:
        return PeakPair(None, None)
    before, after = nonzero[flips], nonzero[flips + 1]
    mids = 0.5 * (dets[before] + dets[after])
    split = before[np.argmin(np.abs(mids - result.cfg.coupling_detuning))]
    i_left = int(np.argmax(size[:split + 1]))
    i_right = split + 1 + int(np.argmax(size[split + 1:]))
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
    """Per-power dispersion peaks: (power W, coupling Rabi rad/s, peaks).

    The coupling strength enters the atom only, so the medium is built once
    and one medium stage serves the atoms of every power.
    """
    check_powers(powers)
    medium = cfg.medium()
    rabis = [rabi_from_power(p, COUPLING) for p in powers]
    results = _medium_stage([(_atom_stage(replace(cfg, coupling_rabi=rabi)), medium)
                             for rabi in rabis])
    return [(p, rabi, find_dispersion_peaks(result))
            for p, rabi, result in zip(powers, rabis, results)]


def sweep_temperature(
    cfg: ScenarioConfig, temps: Sequence[float]
) -> list[tuple[float, SweepResult]]:
    """One full detuning sweep per cell temperature (kelvin).

    Temperature sets both the vapor density (calibrated curve) and the
    Maxwellian width; an explicit density in ``cfg`` is deliberately
    dropped so each point sits on the curve. Both enter the medium only, so
    the media are built first, then one atom stage and one medium stage
    serve the whole scan.
    """
    media = [replace(cfg, temperature=t, density=None).medium() for t in temps]
    atom = _atom_stage(cfg)
    return list(zip(temps, _medium_stage([(atom, medium) for medium in media])))


def eit_transmission(cfg: ScenarioConfig, component: str) -> TransmissionCurve:
    """Probe transmission exp(-alpha d) for one circular component.

    The steady state is solved with the probe restricted to that component,
    matching a measurement where only one circular polarization enters.
    """
    return _eit_transmissions(cfg, [component])[component]


def _eit_transmissions(cfg: ScenarioConfig, components) -> dict[str, TransmissionCurve]:
    """``eit_transmission`` of each component, from one medium stage."""
    if not all(c in (SIGMA_MINUS, SIGMA_PLUS) for c in components):
        raise ValueError("component must be sigma_minus or sigma_plus")
    medium = cfg.medium()
    atoms = [_atom_stage(replace(cfg, probe_polarization=c)) for c in components]
    return {c: TransmissionCurve(r.detunings, np.exp(-(
        r.pair.alpha_minus if c == SIGMA_MINUS else r.pair.alpha_plus) * medium.cell_length))
        for c, r in zip(components, _medium_stage([(atom, medium) for atom in atoms]))}


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

