"""Composed experiments: detuning sweeps, power and temperature scans,
EIT transmission peak counting, and their CSV/metadata serialization.

A sweep has two stages. The atom stage resolves a ScenarioConfig into
everything the cell temperature does not change: the level scheme, field
drives, light shifts, steady-state populations and probe pathways. The
medium stage takes the Doppler width and density from the temperature and
evaluates the susceptibilities, angle and metadata of a stack of sweeps on
one grid: a power scan runs one atom stage per power, a temperature scan
one in all, and either one medium stage for the whole scan. The probe
pathways do not depend on the probe detuning, so one set serves a sweep's
grid, and the sweeps of a stack share one call of the closed-form kernel,
which evaluates their pathways in blocks of rows. The detection chain runs
on those arrays only when a detector trace is written
(``SweepResult.signals``).
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

import json
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
    TWO_PI,
    FieldDrive,
    LevelScheme,
    build_level_scheme,
    coupling_polarization,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
)
from .detection import (
    DetectorSignals,
    JonesVector,
    detector_intensities,
    propagate_cell,
    recover_angle,
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
    _STACK_ELEMENTS,
    CELL_LENGTH,
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
    metadata: dict

    @property
    def signals(self) -> DetectorSignals:
        """The detector intensities of the linear probe after the cell, one
        array per detector, computed on each access."""
        return detector_intensities(
            propagate_cell(JonesVector.linear(), self.pair, self.medium), 1.0)

    def spectrum_table(self) -> np.ndarray:
        p = self.pair
        return np.column_stack((
            self.detunings / TWO_PI / 1e6,
            p.chi_minus.real, p.chi_minus.imag,
            p.chi_plus.real, p.chi_plus.imag,
            p.n_plus - p.n_minus,
            p.alpha_plus, p.alpha_minus,
            np.degrees(self.phi_exact),
        ))

    def trace_table(self) -> np.ndarray:
        s = self.signals
        return np.column_stack((
            self.detunings / TWO_PI / 1e6,
            s.d1 / s.i0, s.d2 / s.i0, s.d3 / s.i0, s.d4 / s.i0,
            np.degrees(recover_angle(s)),
        ))


class TransmissionCurve(NamedTuple):
    detunings: np.ndarray
    transmission: np.ndarray


def steady_populations(cfg: ScenarioConfig) -> dict:
    """Ground-sublevel occupations from the steady-state solve at
    two-photon resonance (probe detuning equal to the coupling detuning),
    the representative point for the fixed-population policy.
    """
    resonance = np.array([cfg.coupling_detuning])
    return _atom_stage(replace(cfg, population_policy="fixed"), resonance).populations


class _Atom(NamedTuple):
    """What the atom stage of a sweep resolves: everything that the cell
    temperature and density leave unchanged."""

    cfg: ScenarioConfig
    detunings: np.ndarray
    paths: tuple[list, list]  # probe pathways, sigma-minus then sigma-plus
    populations: dict  # ground sublevel -> occupation, or one per detuning
    metadata: dict  # the sweep's metadata without the medium


def _atom_stage(cfg: ScenarioConfig, dets: np.ndarray) -> _Atom:
    """The atom of ``cfg`` on the grid ``dets``, which the atoms of a scan
    share; only the ``per_point`` policy reads it."""
    scheme = cfg.scheme()
    coupling = cfg.coupling_drive()
    stark = cfg.stark(scheme)
    probe = cfg.probe_drive(cfg.coupling_detuning)

    # h is built at two-photon resonance, the point the metadata always
    # reports, so that point is solved first under either policy; its one
    # factorization serves every other detuning (see ``dynamics._factor``)
    h = build_hamiltonian(scheme, probe, coupling, stark, cfg.b_field)
    per_point = cfg.population_policy == "per_point"
    record, rows = _population_record(scheme, h, cfg.rates, per_point)
    resonance = record.x0[rows]
    _check_populations(scheme, resonance[None], [cfg.coupling_detuning])
    idx, values = scheme.index, resonance.tolist()
    meta_pops = {s: values[idx[s]] for s in scheme.ground()}
    pops = meta_pops
    if per_point:
        all_pops = _evaluate(record, dets - cfg.coupling_detuning, rows)
        _check_populations(scheme, all_pops, dets)
        pops = {s: all_pops[:, idx[s]] for s in meta_pops}

    # pathways carry no probe detuning, so one set serves the whole grid
    paths = [probe_pathways(scheme, probe, coupling, component, stark)
             for component in (SIGMA_MINUS, SIGMA_PLUS)]
    return _Atom(cfg, dets, (*paths,), pops, {
        "scheme": cfg.scheme_id,
        "populations": {scheme.label(s): v for s, v in meta_pops.items()},
        "population_policy": cfg.population_policy,
        "coupling_detuning_mhz": cfg.coupling_detuning / TWO_PI / 1e6,
    })


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
    """The sweep of each (atom, medium) pair, in order, from one kernel
    call; the atoms share one grid."""
    first = pairs[0][0]
    chis = susceptibility_arrays(
        [(*atom.paths, atom.populations, medium) for atom, medium in pairs],
        first.detunings, first.cfg.coupling_detuning, first.cfg.rates,
        first.cfg.b_field)
    results = []
    for (atom, medium), (chi_m, chi_p) in zip(pairs, chis):
        bad = np.count_nonzero(~(np.isfinite(chi_m) & np.isfinite(chi_p)))
        if bad:
            raise NumericError(f"susceptibility not finite at {bad} of "
                               f"{atom.detunings.size} detunings")

        pair = SusceptibilityPair.from_chis(chi_m, chi_p, medium)
        metadata = {**atom.metadata, "density_m3": medium.density,
                    "temperature_k": medium.temperature, "v_width_ms": medium.v_width}
        results.append(SweepResult(detunings=atom.detunings, pair=pair, medium=medium,
                                   phi_exact=rotation_angle(pair, medium).exact,
                                   metadata=metadata))
    return results


def sweep_probe_detuning(cfg: ScenarioConfig) -> SweepResult:
    """One detuning sweep: the medium stage of its atom stage. The medium is
    built first, so that one that cannot be built fails before any solve."""
    medium = cfg.medium()
    return _medium_stage([(_atom_stage(cfg, cfg.detunings()), medium)])[0]


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
    """Per-power dispersion peaks: (power W, coupling Rabi rad/s, peaks).

    The coupling strength enters the atom only, so the medium is built once
    and one medium stage serves the atoms of every power.
    """
    check_powers(powers)
    medium = cfg.medium()
    rabis = [rabi_from_power(p, COUPLING) for p in powers]
    dets = cfg.detunings()
    results = _medium_stage([(_atom_stage(replace(cfg, coupling_rabi=rabi), dets),
                              medium) for rabi in rabis])
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
    atom = _atom_stage(cfg, cfg.detunings())
    return list(zip(temps, _medium_stage([(atom, medium) for medium in media])))


def eit_transmission(cfg: ScenarioConfig, component: str) -> TransmissionCurve:
    """Probe transmission exp(-alpha d) for one circular component.

    The steady state is solved with the probe restricted to that component,
    matching a measurement where only one circular polarization enters.
    """
    if component not in (SIGMA_MINUS, SIGMA_PLUS):
        raise ValueError("component must be sigma_minus or sigma_plus")
    sub = replace(cfg, probe_polarization=component)
    result = sweep_probe_detuning(sub)
    pair = result.pair
    alpha = pair.alpha_minus if component == SIGMA_MINUS else pair.alpha_plus
    transmission = np.exp(-alpha * result.medium.cell_length)
    return TransmissionCurve(result.detunings, transmission)


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


# CSV cells (see write_csv). A table of fewer cells is formatted by one
# ``%``: ``_format_cells`` spends about 0.1 ms on numpy calls at any size,
# and measured after a sweep the two break even at 300-540 cells.
_VECTOR_CELLS = 1024
# 10**0 ... 10**22, all exact, then 22 ones: a * _POW10[k] / _POW10[-k] is
# a * 10**k rounded once, as one multiply or one divide, for |k| <= 22.
_POW10 = np.array([float(10 ** k) for k in range(23)] + [1.0] * 22)
# A cell is laid out in four 8-byte words, NUL where no byte goes:
#   0: sign, the "0." and up to three "0"s of 0.000ddd, first digit, point;
#   1, 2: the other eight digits, each followed by a point slot;
#   3: "e" with sign and two exponent digits, the separator.
# The tables below hold words, read as uint64 so that one gather or one
# bitwise operation places eight bytes in either byte order.
_ASCII = np.frombuffer(b"0123456789", np.uint8)


def _padded(strings: list[bytes], width: int) -> np.ndarray:
    """The strings as the rows of a uint8 array, NUL-padded to ``width``."""
    return np.array(strings, f"S{width}").view(np.uint8).reshape(len(strings), width)


def _digit_tables():
    """b"%04d" % i in the even bytes of word i, and its count of trailing
    "0"s, for i below 10**4."""
    words = np.zeros((10, 10, 10, 10, 8), np.uint8)
    for k in range(4):
        words[..., 2 * k] = _ASCII.reshape((10,) + (1,) * (3 - k))
    zeros = np.zeros(10000, np.intp)
    for k in range(1, 5):
        zeros[::10 ** k] = k
    return words.view(np.uint64).ravel(), zeros


_DIGIT_WORDS, _TRAILING_ZEROS = _digit_tables()
# the first word without prefix and point, by sign bit and first digit
_FIRST = _padded([s + bytes(5) + b"%d" % d for s in (bytes(1), b"-") for d in range(10)],
                 8).view(np.uint64).ravel()
_COMMA, _NEWLINE = _padded([bytes(4) + b",", bytes(4) + b"\n"], 8).view(np.uint64).ravel()


def _cell_templates():
    """(bytes kept, bytes added) per row 46 z + e + 14 of a cell with
    exponent e (-14 to 31, the exponents with an exact power of ten and
    their carries) whose 9-digit mantissa ends in z zeros (0-8): a mask
    that clears the digits after the last one kept, and the prefix, point
    and exponent."""
    e = np.arange(-14, 32)
    fixed = (e >= -4) & (e <= 8)
    point = np.where(fixed, np.maximum(e, -1), 0)  # the digit before the "."
    kept = np.maximum(9 - np.arange(9)[:, None, None], point[:, None] + 1)
    slot = np.arange(9)
    keep = np.full((9, 46, 32), 255, np.uint8)
    keep[..., 8:24:2] = 255 * (slot[1:] < kept)
    add = np.zeros((9, 46, 32), np.uint8)
    add[..., 7:24:2] = ord(".") * ((slot == point[:, None]) & (kept > point[:, None] + 1))
    add[..., 1:6] = _padded([b"0.000"[:1 - k] if -4 <= k < 0 else b"" for k in e.tolist()], 5)
    add[..., 24:28] = _padded([b"" if -4 <= k <= 8 else b"e%+03d" % k for k in e.tolist()], 4)
    return keep.view(np.uint64).reshape(-1, 4), add.view(np.uint64).reshape(-1, 4)


_KEEP, _ADD = _cell_templates()


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    k = np.clip(8 - e, -22, 22).astype(np.intp)
    return a * _POW10[k] / _POW10[-k]


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, e, slow) with |x| = m 10**(e - 8) to 9 significant digits.

    e comes from log10 |x| (one off next to a power of ten, which the scaled
    value shows) and the mantissa m from s = |x| 10**(8 - e), rounded once
    from the exact product. Rounding is monotone, so s lies on the same side
    of each tie m + 1/2 (exact in a float) as the product, and rint(s) is
    the correctly rounded mantissa unless s is a tie. m = 1e9 carries into
    e. ``slow`` indexes the cells this cannot decide (not finite, |8 - e|
    above 22, a tie); they and zeros get m = 1e8, e = 0.
    """
    a = np.abs(x)
    a[a == 0] = 1.0  # formatted as 1, its digit cleared in _cell_words
    a[~(a < np.inf)] = 1e300  # inf and nan: out of range
    e = np.log10(a)
    np.floor(e, out=e)
    s = _scaled(a, e)
    off = np.flatnonzero((s < 1e8) | (s >= 1e9))
    if off.size:
        e[off] += np.where(s[off] < 1e8, -1.0, 1.0)
        s[off] = _scaled(a[off], e[off])
    m = np.rint(s)
    s -= m
    slow = np.flatnonzero((np.abs(s, out=s) == 0.5) | (np.abs(8 - e) > 22))
    m[slow], e[slow] = 1e8, 0.0
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    return m, e, slow


def _cell_words(table: np.ndarray, m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The four words of each cell of ``table`` (see ``_cell_templates``)
    from the ``_decimal`` m and e of its flattened cells."""
    x = table.ravel()
    high = np.floor(m / 1e4)  # the first five digits
    low = (m - high * 1e4).astype(np.intp)
    first = np.floor(high / 1e4)
    mid = (high - first * 1e4).astype(np.intp)
    first[x == 0] = 0
    first += 10 * np.signbit(x)
    zeros = _TRAILING_ZEROS[low] + (low == 0) * _TRAILING_ZEROS[mid]
    row = (e + 14 + 46 * zeros).astype(np.intp)
    words = np.empty((x.size, 4), np.uint64)
    words[:, 0] = _FIRST[first.astype(np.intp)]
    words[:, 1] = _DIGIT_WORDS[mid]
    words[:, 2] = _DIGIT_WORDS[low]
    ends = words.reshape(*table.shape, 4)[:, :, 3]
    ends[:] = _COMMA
    ends[:, -1] = _NEWLINE
    words &= np.take(_KEEP, row, axis=0)
    words |= np.take(_ADD, row, axis=0)
    return words


def _format_cells(table: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float table, each cell exactly ``'%.9g' % x``:
    the cells ``_decimal`` cannot decide by ``%``, the others from the
    words of ``_cell_words``."""
    x = table.ravel()
    m, e, slow = _decimal(x)
    cells = _cell_words(table, m, e).view(np.uint8).reshape(x.size, 32)
    if slow.size:  # over the 28 bytes before the separator
        cells[slow, :28] = _padded([b"%.9g" % v for v in x[slow].tolist()], 28)
    return cells.tobytes().translate(None, b"\0")


def write_csv(path, columns: Sequence[str], table) -> None:
    """Write a 2-D table under its header line, each cell exactly
    ``'%.9g' % x``, comma separated, with LF line ends on every platform.

    A table of ``_VECTOR_CELLS`` cells or more is formatted by
    ``_format_cells`` in blocks of whole rows, at most ``_STACK_ELEMENTS``
    cells or one row each; a smaller one by one ``%``.
    """
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        if table.size < _VECTOR_CELLS:
            row = ",".join(["%.9g"] * table.shape[1]) + "\n"
            fh.write((row * len(table) % tuple(table.ravel().tolist())).encode())
            return
        rows = max(1, _STACK_ELEMENTS // table.shape[1])
        for start in range(0, len(table), rows):
            fh.write(_format_cells(table[start:start + rows]))


def write_metadata(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys, in one write:
    ``json.dump`` with an indent writes each token on its own."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
