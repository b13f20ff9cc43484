"""Level structure, transition strengths, and field calibration for the Rb D1 line.

The model atom is 5S1/2 F=1 (sublevels a1..a3), 5S1/2 F=2 (b1..b5), and one
excited 5P1/2 hyperfine manifold. Three scheme variants are supported:

``sigma_f2``
    sigma-minus coupling on F=2 -> F'=2 with a linearly polarized probe on
    F=1 -> F'=2. The probe's two circular components see three and two
    lambda sub-systems respectively, and the coupling light-shifts b3..b5
    through the far F'=1 manifold. This is the configuration that rotates
    the probe polarization.
``pi_f2``
    pi-polarized coupling on F=2 -> F'=2. Mirror-symmetric in m, so the two
    probe components see identical media and the rotation vanishes.
``sigma_f1``
    sigma-minus coupling with the excited manifold taken as F'=1. Equal
    sub-system counts for both probe components; rotation comes only from
    transition-strength and population asymmetry and stays small.

All angular frequencies are rad/s. Transition amplitudes follow the decay
normalization of :mod:`eitrot.angular` (squares sum to one per excited
sublevel over both ground manifolds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angular import decay_amplitude

TWO_PI = 2.0 * math.pi
MHZ = TWO_PI * 1e6  # rad/s of one MHz of ordinary frequency

HBAR = 1.054571817e-34        # J s
K_BOLTZMANN = 1.380649e-23    # J/K
EPSILON_0 = 8.8541878128e-12  # F/m
MU_BOHR = 9.2740100783e-24    # J/T
SPEED_OF_LIGHT = 299792458.0  # m/s

RB87_MASS = 1.443e-25         # kg
D1_WAVELENGTH = 794.979e-9    # m
REDUCED_DIPOLE = 2.537e-29    # C m, 5S1/2 -> 5P1/2
FPRIME_SPLITTING = TWO_PI * 816e6  # rad/s, excited-state hyperfine interval

GROUND_F1 = "ground_f1"
GROUND_F2 = "ground_f2"
EXCITED = "excited"

SIGMA_MINUS = "sigma_minus"
SIGMA_PLUS = "sigma_plus"
PI = "pi"
LINEAR = "linear"

PROBE = "probe"
COUPLING = "coupling"

SCHEME_IDS = ("sigma_f2", "pi_f2", "sigma_f1")

# power -> Rabi anchors, (watts, rad/s)
RABI_ANCHORS = {
    COUPLING: (15e-3, TWO_PI * 100e6),
    PROBE: (150e-6, TWO_PI * 10e6),
}

_POL_DELTA_M = {SIGMA_MINUS: -1, PI: 0, SIGMA_PLUS: +1}


@dataclass(frozen=True, order=True)
class Sublevel:
    manifold: str
    m: int
    f: int


@dataclass(frozen=True)
class Transition:
    """One dipole line between a ground and an excited sublevel.

    ``cg`` is the signed amplitude in decay normalization; ``dipole`` is the
    physical matrix element cg * reduced dipole.
    """

    lower: Sublevel
    upper: Sublevel
    polarization: str
    cg: float

    @property
    def dipole(self) -> float:
        return self.cg * REDUCED_DIPOLE


@dataclass(frozen=True)
class FieldDrive:
    """One laser field: which transition family it drives and how hard.

    ``rabi_scale`` is the Rabi frequency of the strongest transition this
    field drives; weaker lines scale with their amplitude ratio. A
    ``linear`` probe drives both circular components at the same scale.
    """

    which: str
    polarization: str
    rabi_scale: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.which not in (PROBE, COUPLING):
            raise ValueError(f"unknown field role {self.which!r}")
        if self.rabi_scale < 0:
            raise ValueError("rabi_scale must be >= 0")
        allowed = (SIGMA_MINUS, SIGMA_PLUS, LINEAR) if self.which == PROBE \
            else (SIGMA_MINUS, SIGMA_PLUS, PI)
        if self.polarization not in allowed:
            raise ValueError(
                f"{self.which} polarization must be one of {allowed}, got {self.polarization!r}"
            )

    def components(self) -> tuple[str, ...]:
        if self.polarization == LINEAR:
            return (SIGMA_MINUS, SIGMA_PLUS)
        return (self.polarization,)


# Lande g_F of each manifold, by (manifold, F)
G_FACTORS = {
    (GROUND_F1, 1): -0.5,
    (GROUND_F2, 2): +0.5,
    (EXCITED, 2): 1.0 / 6.0,
    (EXCITED, 1): -1.0 / 6.0,
}


def zeeman_shift(s: Sublevel, b_field: float) -> float:
    """Linear Zeeman shift m * g_F * mu_B * B / hbar in rad/s of a longitudinal
    field ``b_field`` (tesla)."""
    if b_field == 0.0 or s.m == 0:
        return 0.0
    return s.m * G_FACTORS[s.manifold, s.f] * MU_BOHR * b_field / HBAR


@dataclass(frozen=True)
class StarkShifts:
    """Light shifts of the F=2 sublevels from far-detuned coupling.

    ``shifts`` maps m of the F=2 sublevel to delta = |Omega_far|^2/(4 Delta).
    """

    shifts: dict

    def of(self, s: Sublevel) -> float:
        if s.manifold != GROUND_F2:
            return 0.0
        return self.shifts.get(s.m, 0.0)


NO_STARK = StarkShifts(shifts={})


@dataclass(frozen=True)
class LevelScheme:
    scheme_id: str
    sublevels: tuple[Sublevel, ...]
    transitions: tuple[Transition, ...]
    excited_f: int
    far_level_detuning: float | None

    def ground(self) -> tuple[Sublevel, ...]:
        return tuple(s for s in self.sublevels if s.manifold != EXCITED)

    def excited(self) -> tuple[Sublevel, ...]:
        return tuple(s for s in self.sublevels if s.manifold == EXCITED)

    def label(self, s: Sublevel) -> str:
        base = {GROUND_F1: "a", GROUND_F2: "b", EXCITED: "c"}[s.manifold]
        return f"{base}{s.m + s.f + 1}"

    def by_label(self, label: str) -> Sublevel:
        for s in self.sublevels:
            if self.label(s) == label:
                return s
        raise KeyError(f"no sublevel labelled {label!r}")

    def decay_channels(self, upper: Sublevel) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.upper == upper and t.cg != 0.0)

    def driven_transitions(self, drive: FieldDrive) -> tuple[Transition, ...]:
        manifold = GROUND_F1 if drive.which == PROBE else GROUND_F2
        pols = drive.components()
        return tuple(
            t for t in self.transitions
            if t.lower.manifold == manifold and t.polarization in pols
        )

    def cg_norm(self, drive: FieldDrive) -> float:
        cgs = [abs(t.cg) for t in self.driven_transitions(drive)]
        top = max(cgs, default=0.0)
        return top if top > 0.0 else 1.0

    def rabi_of(self, drive: FieldDrive, t: Transition) -> float:
        return drive.rabi_scale * t.cg / self.cg_norm(drive)


def clebsch_gordan(lower: Sublevel, upper: Sublevel) -> float:
    """Signed amplitude for the lower -> upper dipole line; 0.0 if forbidden."""
    return decay_amplitude(lower.f, lower.m, upper.f, upper.m)


def build_level_scheme(scheme_id: str) -> LevelScheme:
    """Assemble sublevels and the full sigma/pi transition table for a scheme."""
    if scheme_id not in SCHEME_IDS:
        raise ValueError(f"unknown scheme {scheme_id!r}; expected one of {SCHEME_IDS}")
    excited_f = 1 if scheme_id == "sigma_f1" else 2
    sublevels = tuple(
        [Sublevel(GROUND_F1, m, 1) for m in range(-1, 2)]
        + [Sublevel(GROUND_F2, m, 2) for m in range(-2, 3)]
        + [Sublevel(EXCITED, m, excited_f) for m in range(-excited_f, excited_f + 1)]
    )
    grounds = [s for s in sublevels if s.manifold != EXCITED]
    excited = [s for s in sublevels if s.manifold == EXCITED]
    transitions = []
    for g in grounds:
        for e in excited:
            dm = e.m - g.m
            if abs(dm) > 1:
                continue
            pol = {-1: SIGMA_MINUS, 0: PI, +1: SIGMA_PLUS}[dm]
            transitions.append(Transition(g, e, pol, clebsch_gordan(g, e)))
    return LevelScheme(
        scheme_id=scheme_id,
        sublevels=sublevels,
        transitions=tuple(transitions),
        excited_f=excited_f,
        far_level_detuning=FPRIME_SPLITTING if scheme_id == "sigma_f2" else None,
    )


def coupling_polarization(scheme_id: str) -> str:
    return PI if scheme_id == "pi_f2" else SIGMA_MINUS


def stark_shifts(coupling: FieldDrive, scheme: LevelScheme) -> StarkShifts:
    """Light shifts delta_b = |Omega_far|^2 / (4 Delta) of the F=2 sublevels.

    The coupling also drives each b sublevel toward the far excited manifold
    (detuned by ``scheme.far_level_detuning``); the resulting shift moves the
    two-photon resonances of the affected lambda systems. Schemes without a
    far manifold get no shifts.
    """
    if scheme.far_level_detuning is None or coupling.which != COUPLING:
        return NO_STARK
    far_f = 1 if scheme.excited_f == 2 else 2
    dm = _POL_DELTA_M.get(coupling.polarization)
    if dm is None:
        return NO_STARK
    norm = scheme.cg_norm(coupling)
    shifts = {}
    for s in scheme.ground():
        if s.manifold != GROUND_F2:
            continue
        m_far = s.m + dm
        amp = decay_amplitude(s.f, s.m, far_f, m_far)
        omega = coupling.rabi_scale * amp / norm
        shifts[s.m] = abs(omega) ** 2 / (4.0 * scheme.far_level_detuning)
    return StarkShifts(shifts=shifts)


def rabi_from_power(power: float, which: str) -> float:
    """Rabi frequency from beam power by square-root scaling off one anchor."""
    if not power >= 0:
        raise ValueError("power must be >= 0")
    p_ref, omega_ref = RABI_ANCHORS[which]
    return omega_ref * math.sqrt(power / p_ref)


@dataclass(frozen=True)
class ProbePathway:
    """One probe absorption route a -> e with its optional lambda partner.

    The coupling partner b (if present) turns the route into a lambda
    sub-system: the susceptibility denominator gains the EIT term
    |coupling_rabi|^2/4 divided by the two-photon line. ``stark_shift`` is
    the light shift of the partner.
    """

    ground: Sublevel
    excited: Sublevel
    probe_rabi: float
    probe_dipole: float
    partner: Sublevel | None
    coupling_rabi: float
    stark_shift: float


def probe_pathways(
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
    component: str,
    stark: StarkShifts = NO_STARK,
) -> tuple[ProbePathway, ...]:
    """Absorption pathways of one circular probe component, ordered by ground m."""
    if component not in (SIGMA_MINUS, SIGMA_PLUS):
        raise ValueError("component must be a circular polarization")
    if component not in probe.components():
        return ()
    restricted = FieldDrive(PROBE, component, probe.rabi_scale, probe.detuning)
    pathways = []
    for t in sorted(scheme.driven_transitions(restricted), key=lambda t: t.lower.m):
        partner = None
        coupling_rabi = 0.0
        for ct in scheme.driven_transitions(coupling):
            if ct.upper == t.upper:
                partner = ct.lower
                coupling_rabi = scheme.rabi_of(coupling, ct)
                break
        pathways.append(
            ProbePathway(
                ground=t.lower,
                excited=t.upper,
                probe_rabi=scheme.rabi_of(probe, t),
                probe_dipole=t.dipole,
                partner=partner,
                coupling_rabi=coupling_rabi,
                stark_shift=stark.of(partner) if partner is not None else 0.0,
            )
        )
    return tuple(pathways)


def lambda_subsystems(
    scheme: LevelScheme, probe: FieldDrive, coupling: FieldDrive, component: str
) -> tuple[tuple[Sublevel, Sublevel, Sublevel], ...]:
    """(ground_F1, excited, ground_F2) triples closed by nonzero probe and coupling lines."""
    triples = []
    for p in probe_pathways(scheme, probe, coupling, component):
        if p.probe_rabi != 0.0 and p.partner is not None and p.coupling_rabi != 0.0:
            triples.append((p.ground, p.excited, p.partner))
    return tuple(triples)

