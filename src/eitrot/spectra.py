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

with w the Faddeeva function (scipy.special.wofz). The identity holds for
Im(i A / (k V)) = Re(A) / (k V) > 0, which positive gamma_ca and
non-negative gamma_ba guarantee (``RelaxationRates`` enforces both). The
kernel evaluates it for every pathway and probe detuning in one call, and
sums the partials per circular component into chi- and chi+, hence
refractive indices, absorption coefficients, and the rotation angle of the
linear probe polarization.

The mapping from cell temperature to vapor density uses the liquid-phase Rb
vapor-pressure curve rescaled to pass through a measured anchor point, so
nearby temperatures extrapolate consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import wofz

from .atom import (
    D1_WAVELENGTH,
    EPSILON_0,
    HBAR,
    K_BOLTZMANN,
    RB87_MASS,
    SPEED_OF_LIGHT,
    FieldDrive,
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
    "SPECTRUM_CSV_COLUMNS",
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

SPECTRUM_CSV_COLUMNS = [
    "detuning_mhz",
    "re_chi_minus", "im_chi_minus",
    "re_chi_plus", "im_chi_plus",
    "n_diff", "alpha_plus", "alpha_minus", "phi_deg",
]


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

    @property
    def omega(self) -> float:
        return self.wavevector * SPEED_OF_LIGHT


@dataclass(frozen=True)
class SusceptibilityPair:
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
        """n and alpha from the complex index sqrt(1 + chi): n = Re,
        alpha = 2 k Im."""
        k = medium.wavevector
        index_minus = np.sqrt(1.0 + np.asarray(chi_minus, dtype=complex))
        index_plus = np.sqrt(1.0 + np.asarray(chi_plus, dtype=complex))
        return cls(
            chi_minus=chi_minus,
            chi_plus=chi_plus,
            n_minus=index_minus.real,
            n_plus=index_plus.real,
            alpha_minus=2.0 * k * index_minus.imag,
            alpha_plus=2.0 * k * index_plus.imag,
        )


@dataclass(frozen=True)
class RotationAngle:
    """Rotation of the probe polarization plane, radians; scalars or arrays
    like the ``SusceptibilityPair`` they come from.

    ``exact`` uses the index difference, (pi/lambda)(n+ - n-)d; ``approx``
    the small-chi form (pi/2 lambda) Re(chi+ - chi-) d.
    """

    exact: float
    approx: float


def doppler_average(denominator, kv: float):
    """Maxwellian average of 1/(denominator - i k u), units of 1/denominator.

    ``kv`` is k V; ``denominator`` (complex, any shape) must have a positive
    real part. See the module docstring for the closed form.
    """
    return math.sqrt(math.pi) / kv * wofz(1j * np.asarray(denominator) / kv)


def _component_sum(partials: np.ndarray) -> np.ndarray:
    # Summing in a canonical order makes mirror-image pathway sets, whose
    # partials agree bit for bit, give bit-identical totals.
    return np.sort(partials, axis=0).sum(axis=0)


def susceptibility_arrays(
    paths_minus: Sequence[ProbePathway],
    paths_plus: Sequence[ProbePathway],
    detunings,
    coupling: FieldDrive,
    rates: RelaxationRates,
    populations: dict,
    medium: MediumParams,
    b_field: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """chi- and chi+ at each probe detuning in ``detunings`` (rad/s), in a
    longitudinal field ``b_field`` (tesla).

    ``populations`` maps ground sublevels to occupations, either one number
    per sublevel or one array per sublevel with one entry per detuning.
    All pathways and detunings share one Faddeeva evaluation.
    """
    dets = np.atleast_1d(np.asarray(detunings, dtype=float))
    paths = (*paths_minus, *paths_plus)
    shape = (len(paths), len(dets))
    kv = medium.wavevector * medium.v_width
    with np.errstate(divide="ignore", invalid="ignore"):
        denominators = np.array([
            pathway_denominator(p, dets, coupling.detuning, rates, b_field)
            for p in paths
        ]).reshape(shape)
        # An undamped ground coherence (gamma_ba = 0) at exact two-photon
        # resonance makes the dressed denominator infinite; the average then
        # tends to zero: that pathway is fully transparent.
        factors = np.where(np.isinf(denominators), 0.0,
                           doppler_average(denominators, kv))
    prefactor = 1j * medium.density / (HBAR * EPSILON_0)
    weights = np.array([
        np.broadcast_to(
            prefactor * p.probe_dipole ** 2 * populations.get(p.ground, 0.0),
            dets.shape)
        for p in paths
    ]).reshape(shape)
    partials = weights * factors
    split = len(paths_minus)
    return _component_sum(partials[:split]), _component_sum(partials[split:])


def rotation_angle(pair: SusceptibilityPair, medium: MediumParams) -> RotationAngle:
    d = medium.cell_length
    lam = medium.wavelength
    return RotationAngle(
        exact=math.pi / lam * (pair.n_plus - pair.n_minus) * d,
        approx=math.pi / (2.0 * lam) * (pair.chi_plus - pair.chi_minus).real * d,
    )
