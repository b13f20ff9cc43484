"""Coupling-induced polarization rotation of a weak probe in Rb vapor.

A linearly polarized probe on the D1 F=1 -> F' line, decomposed into its two
circular components, sees different ladders of lambda sub-systems when a
circularly polarized coupling field dresses the F=2 -> F' line. The resulting
difference in refractive index between the components rotates the probe
polarization; this package computes the steady-state atomic response, the
Doppler-averaged susceptibilities, the rotation spectra, and the polarimetric
detection signals, and exposes the scenarios behind them on a CLI.
"""

from .atom import (
    COUPLING,
    LINEAR,
    PI,
    PROBE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    FieldDrive,
    LevelScheme,
    StarkShifts,
    Sublevel,
    Transition,
    ZeemanField,
    build_level_scheme,
    clebsch_gordan,
    coupling_polarization,
    lambda_subsystems,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
    zeeman_shift,
)
from .dynamics import (
    RelaxationRates,
    SteadyStateError,
    analytic_coherences,
    build_hamiltonian,
    build_liouvillian,
    coupled_element_count,
    equation_dump,
    pathway_denominator,
    solve_steady_state,
)
from .spectra import (
    MediumParams,
    RotationAngle,
    SusceptibilityPair,
    doppler_average,
    maxwellian_weight,
    rb_vapor_density,
    rotation_angle,
    susceptibility_arrays,
    susceptibility_pair,
    thermal_v_width,
)
from .detection import (
    DetectorSignals,
    IndeterminateAngleError,
    JonesVector,
    detector_intensities,
    propagate_cell,
    recover_angle,
)
from .scenarios import (
    Peak,
    PeakPair,
    ScenarioConfig,
    SweepResult,
    TransmissionCurve,
    count_transmission_peaks,
    eit_transmission,
    find_dispersion_peaks,
    steady_populations,
    sweep_coupling_power,
    sweep_probe_detuning,
    sweep_temperature,
)

__version__ = "0.1.0"
