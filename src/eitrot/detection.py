"""Polarimetric detection of the probe rotation angle.

The probe enters the cell linearly polarized along x. Inside the cell its two
circular components pick up different phase delays and attenuations, so the
output is, in general, elliptical with a rotated major axis. A 50/50 beam
splitter feeds two analysis arms:

  * transmitted arm, polarizing splitter along x/y: D2 sees the x port and
    D1 the y port, so D1 is dark until the polarization rotates;
  * reflected arm, half-wave plate oriented 22.5 deg from x and then a
    polarizing splitter: D3/D4 start balanced and trade intensity as the
    plane rotates.

The half-difference signals are proportional to cos(2 phi) and sin(2 phi)
with a common attenuation prefactor, so the two-argument arctangent of the
pair recovers the major-axis angle independent of absorption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import NumericError
from .spectra import MediumParams, SusceptibilityPair

__all__ = [
    "JonesVector",
    "DetectorSignals",
    "IndeterminateAngleError",
    "propagate_cell",
    "detector_intensities",
    "recover_angle",
]

# half-wave plate at 22.5 deg to the input polarization, as a Jones operator
HALF_WAVE_MATRIX = np.array(
    [
        [-math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0],
        [math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0],
    ]
)

_ANGLE_FLOOR = 1e-12


class IndeterminateAngleError(NumericError):
    """Both difference signals vanished, so the angle is undefined; ``at``
    holds the flat indices of the entries where they did."""

    def __init__(self, at: np.ndarray):
        super().__init__("difference signals below the indeterminacy floor")
        self.at = at


class JonesVector(NamedTuple):
    """Transverse field amplitudes in the fixed x/y basis; scalars, or arrays
    of one shape for a field per detuning."""

    ex: complex
    ey: complex

    @classmethod
    def linear(cls, angle: float = 0.0) -> "JonesVector":
        """Unit-amplitude linear polarization at ``angle`` from x."""
        return cls(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class DetectorSignals:
    """The four analysis-arm intensities, non-negative: scalars, or arrays
    of one shape.

    With ideal optics d1 + d2 = d3 + d4, since each arm carries half the
    output power.
    """

    d1: float
    d2: float
    d3: float
    d4: float

    def __post_init__(self):
        for name in ("d1", "d2", "d3", "d4"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be non-negative")


def propagate_cell(
    e_in: JonesVector, pair: SusceptibilityPair, medium: MediumParams
) -> JonesVector:
    """Apply the cell's circular birefringence and dichroism to the field.

    The sigma+ component maps to (x + i y)/sqrt(2) and sigma- to its
    conjugate; each acquires exp(-i k n d - alpha d / 2). Array-valued
    ``pair`` fields give a field per entry.
    """
    c_plus = (e_in.ex - 1j * e_in.ey) / 2.0
    c_minus = (e_in.ex + 1j * e_in.ey) / 2.0
    k = medium.wavevector
    d = medium.cell_length
    t_plus = np.exp(-1j * k * pair.n_plus * d - 0.5 * pair.alpha_plus * d)
    t_minus = np.exp(-1j * k * pair.n_minus * d - 0.5 * pair.alpha_minus * d)
    c_plus *= t_plus
    c_minus *= t_minus
    return JonesVector(c_plus + c_minus, 1j * (c_plus - c_minus))


def detector_intensities(e_out: JonesVector, i0: float) -> DetectorSignals:
    """Split the cell output 50/50 and analyze both arms.

    ``e_out`` is taken in units where the input field had unit amplitude;
    intensities are reported in units of ``i0``.
    """
    half = 0.5  # intensity fraction in each arm of the 50/50 splitter
    d2 = half * abs(e_out.ex) ** 2 * i0
    d1 = half * abs(e_out.ey) ** 2 * i0
    (m00, m01), (m10, m11) = HALF_WAVE_MATRIX / math.sqrt(2.0)
    d3 = abs(m00 * e_out.ex + m01 * e_out.ey) ** 2 * i0
    d4 = abs(m10 * e_out.ex + m11 * e_out.ey) ** 2 * i0
    return DetectorSignals(d1=d1, d2=d2, d3=d3, d4=d4)


def recover_angle(signals: DetectorSignals) -> float | np.ndarray:
    """Polarization-plane angle, radians, in (-pi/2, pi/2]: a scalar, or an
    array for array-valued signals.

    Uses the two-argument arctangent of the difference-signal pair, so any
    common attenuation cancels. If both differences sit below
    ``_ANGLE_FLOOR`` times the total detected power at any entry, the
    polarization state there carries no angle information (e.g. pure
    circular light or a dark output) and the call raises, naming those
    entries.
    """
    num = signals.d4 - signals.d3
    den = signals.d2 - signals.d1
    total = signals.d1 + signals.d2 + signals.d3 + signals.d4
    low = np.hypot(num, den) <= _ANGLE_FLOOR * total
    if np.any(low):
        raise IndeterminateAngleError(np.flatnonzero(low))
    phi = 0.5 * np.arctan2(num, den)
    return np.where(phi <= -np.pi / 2.0, phi + np.pi, phi)[()]
