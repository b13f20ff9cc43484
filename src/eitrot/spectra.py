"""Doppler-averaged susceptibilities of the two circular probe components.

Each probe pathway contributes a partial susceptibility

    chi_t = (i / (hbar eps0)) * mu_t^2 * rho_gg * N0 * F_t,

where F_t is the Maxwellian average of the inverse dressed-line denominator.
For an atom moving at u along the beams that denominator is A - i k u: the
one-photon detuning rides the first-order Doppler shift, while the
two-photon (EIT) term stays velocity-free because probe and coupling
co-propagate, and the populations are taken as velocity-independent. So A,
the ``pathway_denominator`` at rest, is the same for every velocity class,
and the average is a Voigt integral with a closed form,

    F = integral du exp(-u^2/V^2) / (V sqrt(pi)) / (A - i k u)
      = sqrt(pi) / (k V) * w(i A / (k V)),

with w the Faddeeva function. The identity holds for
Im(i A / (k V)) = Re(A) / (k V) > 0, which positive gamma_ca and
non-negative gamma_ba guarantee (``RelaxationRates`` enforces both). On that
upper half-plane w is evaluated by Weideman's rational approximation
(J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)) with
N = ``_FADDEEVA_N`` terms, accurate to a few 1e-14 relative. The kernel
evaluates it elementwise for every pathway (a row, with its sweep's k V)
of a stack of sweeps on one grid, in blocks of detunings that stay in
cache, and sums each block per sweep and circular component into chi- and
chi+, hence refractive indices, absorption coefficients, and the rotation
angle of the linear probe polarization.

The mapping from cell temperature to vapor density uses the liquid-phase Rb
vapor-pressure curve rescaled to pass through a measured anchor point, so
nearby temperatures extrapolate consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .atom import (
    D1_WAVELENGTH,
    EPSILON_0,
    HBAR,
    K_BOLTZMANN,
    RB87_MASS,
    ProbePathway,
)
from .dynamics import RelaxationRates, pathway_denominator

__all__ = [
    "CELL_LENGTH",
    "MediumParams",
    "SusceptibilityPair",
    "RotationAngle",
    "VAPOR_CURVE_RANGE_K",
    "rb_vapor_density",
    "thermal_v_width",
    "doppler_average",
    "susceptibility_arrays",
    "rotation_angle",
]

# vapor-pressure anchor: density at 328.15 K fixed to the measured value
_ANCHOR_TEMPERATURE = 328.15
_ANCHOR_DENSITY = 1.62e17  # m^-3

# Temperatures (K) at which the vapor-pressure curve is used: up to Rb's
# boiling point (961 K), and down to 200 K, which extrapolates the liquid
# branch below the melting point (312 K). Outside the range the curve
# overflows (above about 5e5 K) or underflows to zero (below about 12 K).
VAPOR_CURVE_RANGE_K = (200.0, 961.0)

CELL_LENGTH = 0.05  # m, the default vapor-cell length


def _raw_vapor_density(t_kelvin: float) -> float:
    log10_torr = (
        15.88253
        - 4529.635 / t_kelvin
        + 0.00058663 * t_kelvin
        - 2.99138 * math.log10(t_kelvin)
    )
    pressure = 133.322368 * 10.0 ** log10_torr  # Pa
    return pressure / (K_BOLTZMANN * t_kelvin)


_ANCHOR_SCALE = _ANCHOR_DENSITY / _raw_vapor_density(_ANCHOR_TEMPERATURE)


def rb_vapor_density(t_kelvin: float) -> float:
    """Atomic number density (m^-3) of saturated Rb vapor at ``t_kelvin``,
    which must lie in ``VAPOR_CURVE_RANGE_K``."""
    low, high = VAPOR_CURVE_RANGE_K
    if not low <= t_kelvin <= high:
        raise ValueError(
            f"temperature must be within {low:g}-{high:g} K on the vapor curve")
    return _ANCHOR_SCALE * _raw_vapor_density(t_kelvin)


def thermal_v_width(t_kelvin: float) -> float:
    """Maxwellian width V = sqrt(2 k_B T / m) of Rb-87; V/sqrt(2) is the rms speed."""
    return math.sqrt(2.0 * K_BOLTZMANN * t_kelvin / RB87_MASS)


@dataclass(frozen=True)
class MediumParams:
    """Vapor-cell parameters. ``v_width`` is the Maxwellian V, not the rms speed."""

    density: float
    temperature: float
    v_width: float
    cell_length: float = CELL_LENGTH
    wavelength: float = D1_WAVELENGTH

    def __post_init__(self):
        for name in ("density", "temperature", "v_width", "cell_length", "wavelength"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_temperature(
        cls,
        t_kelvin: float,
        density: float | None = None,
        cell_length: float = CELL_LENGTH,
    ) -> "MediumParams":
        return cls(
            density=rb_vapor_density(t_kelvin) if density is None else density,
            temperature=t_kelvin,
            v_width=thermal_v_width(t_kelvin),
            cell_length=cell_length,
        )

    @property
    def wavevector(self) -> float:
        return 2.0 * math.pi / self.wavelength


class SusceptibilityPair(NamedTuple):
    """chi, refractive index, and absorption per circular component.

    The fields are scalars, or arrays of one shape (one entry per detuning).
    """

    chi_minus: complex
    chi_plus: complex
    n_minus: float
    n_plus: float
    alpha_minus: float
    alpha_plus: float

    @classmethod
    def from_chis(cls, chi_minus, chi_plus, medium: MediumParams):
        """n and alpha from the complex index sqrt(1 + chi): n = Re, as a
        copy that does not keep the complex index alive, alpha = 2 k Im."""
        k = medium.wavevector
        index_minus, index_plus = (np.sqrt(1.0 + np.asarray(chi, dtype=complex))
                                   for chi in (chi_minus, chi_plus))
        return cls(chi_minus, chi_plus, index_minus.real.copy(), index_plus.real.copy(),
                   2.0 * k * index_minus.imag, 2.0 * k * index_plus.imag)


class RotationAngle(NamedTuple):
    """Rotation of the probe polarization plane, radians; scalars or arrays
    like the ``SusceptibilityPair`` they come from.

    ``exact`` uses the index difference, (pi/lambda)(n+ - n-)d; ``approx``
    the small-chi form (pi/2 lambda) Re(chi+ - chi-) d.
    """

    exact: float
    approx: float


# Weideman's expansion of the Faddeeva function: N terms of a series in
# Z = (L + i z) / (L - i z), whose coefficients are the Fourier coefficients
# of (L^2 + t^2) exp(-t^2) on the grid t = L tan(theta / 2), highest degree
# first. They are written out to the last bit, so that no FFT runs at import;
# tests/oracles.py derives them and the tests compare the two exactly.
_FADDEEVA_N = 40
_FADDEEVA_L = math.sqrt(_FADDEEVA_N / math.sqrt(2.0))
_FADDEEVA_COEFFS = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-i z) for Im z >= 0, elementwise.

    The result is (2 p(Z) / lz + 1 / sqrt(pi)) / lz with lz = L - i z, not
    2 p(Z) / lz^2 + ..., which would overflow for large finite |z|.
    """
    iz = 1j * z
    lz = _FADDEEVA_L - iz
    big_z = (_FADDEEVA_L + iz) / lz
    p = np.full_like(big_z, _FADDEEVA_COEFFS[0])
    for c in _FADDEEVA_COEFFS[1:]:
        p *= big_z
        p += c
    return (2.0 * p / lz + 1.0 / math.sqrt(math.pi)) / lz


def doppler_average(denominator, kv):
    """Maxwellian average of 1/(denominator - i k u), units of 1/denominator.

    ``kv`` is k V, a number or an array that broadcasts against
    ``denominator`` (complex, any shape), which must have a positive real
    part. See the module docstring for the closed form.
    """
    return math.sqrt(math.pi) / kv * _faddeeva(1j * np.asarray(denominator) / kv)


# Most pathway x detuning elements that one kernel block evaluates (a complex
# temporary of 128 KB). A larger block is slower: the working set of the
# Faddeeva kernel leaves the cache.
_STACK_ELEMENTS = 8192


def _sorted_sum(block: np.ndarray) -> np.ndarray:
    """np.sort(block, axis=1).sum(axis=1) of a complex (c, k, w) block, bit for
    bit where it holds no NaN, without the sort: an odd-even transposition
    network of np.minimum and np.maximum orders the k rows lexicographically,
    as the sort does. Both return their first argument on a tie, so they take
    each pair in opposite orders and the network only permutes the rows. The
    sum is the sort's own call on an array of the same layout, since the
    order in which numpy adds the rows depends on the layout."""
    rows = list(block.swapaxes(0, 1))
    for i in range(len(rows)):
        for j in range(i % 2, len(rows) - 1, 2):
            a, b = rows[j], rows[j + 1]
            rows[j], rows[j + 1] = np.minimum(a, b), np.maximum(b, a)
    return np.stack(rows, axis=1).sum(axis=1)


@lru_cache
def _component_rows(heights: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each number of pathways in ``heights`` (one per component): its components
    and their rows. Sorted, mirror-image pathway sets' partials sum identically."""
    h, ends = np.array(heights), np.cumsum(heights)
    return [(h == k, (ends - h)[h == k, None] + np.arange(k)) for k in set(heights) - {0}]


def susceptibility_arrays(
    items: Sequence[tuple[Sequence[ProbePathway], Sequence[ProbePathway], dict,
                          MediumParams]],
    detunings,
    coupling_detuning: float,
    rates: RelaxationRates,
    b_field: float = 0.0,
) -> np.ndarray:
    """chi- and chi+ at each probe detuning in ``detunings`` (rad/s), in a
    longitudinal field ``b_field`` (tesla), for each item
    ``(paths_minus, paths_plus, populations, medium)``, shaped (items, 2, detunings).

    ``populations`` maps ground sublevels to occupations, either one number
    per sublevel or one array per sublevel with one entry per detuning.
    The pathways of all items are the rows of one array over the detunings,
    each with the k V and density of its item's medium. The Faddeeva kernel
    takes every row over blocks of at least one detuning and at most
    ``_STACK_ELEMENTS`` elements, weights each block, sums it per component
    in sorted order (``_sorted_sum``) and writes the sums into chi.
    """
    dets = np.atleast_1d(np.asarray(detunings, dtype=float))
    paths, kv, weights = [], [], []
    for paths_minus, paths_plus, populations, medium in items:
        prefactor = 1j * medium.density / (HBAR * EPSILON_0)
        for p in (*paths_minus, *paths_plus):
            paths.append(p)
            kv.append(medium.wavevector * medium.v_width)
            weights.append(prefactor * p.probe_dipole ** 2 * populations.get(p.ground, 0.0))
    groups = _component_rows(tuple(len(side) for item in items for side in item[:2]))
    column = np.reshape(weights, (-1, 1)) if all(np.ndim(w) == 0 for w in weights) else None
    chi = np.zeros((2 * len(items), dets.size), dtype=complex)
    width = max(1, _STACK_ELEMENTS // len(paths))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, dets.size, width):
            cols = slice(start, start + width)
            denom = pathway_denominator(paths, dets[cols], coupling_detuning, rates, b_field)
            # An undamped ground coherence (gamma_ba = 0) at exact two-photon
            # resonance makes the dressed denominator infinite; the average
            # then tends to zero: that pathway is fully transparent.
            partials = np.where(np.isinf(denom), 0.0, doppler_average(
                denom, np.reshape(kv, (-1, 1))))
            if column is not None:  # one number per row
                partials *= column
            else:
                for row, weight in zip(partials, weights):
                    row *= weight if np.ndim(weight) == 0 else weight[cols]
            for components, rows in groups:
                chi[components, cols] = _sorted_sum(partials[rows])
    return chi.reshape(len(items), 2, dets.size)


def _exact_angle(pair: SusceptibilityPair, medium: MediumParams):
    return math.pi / medium.wavelength * (pair.n_plus - pair.n_minus) * medium.cell_length


def rotation_angle(pair: SusceptibilityPair, medium: MediumParams) -> RotationAngle:
    return RotationAngle(_exact_angle(pair, medium), math.pi / (2.0 * medium.wavelength)
                         * (pair.chi_plus - pair.chi_minus).real * medium.cell_length)
