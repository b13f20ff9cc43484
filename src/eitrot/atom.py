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

All angular frequencies are rad/s. Transition amplitudes are the D1 line's
closed forms in decay normalization (squares sum to one per excited sublevel
over both ground manifolds), see :func:`decay_amplitude`. A scheme carries
the position of each sublevel and, for each drive ``FieldDrive`` admits, the
lines it drives: transitions, amplitudes and norms only, nothing that
depends on a Rabi frequency, a detuning, a field or a rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

TWO_PI = 2.0 * math.pi
MHZ = TWO_PI * 1e6  # rad/s of one MHz of ordinary frequency

HBAR = 1.054571817e-34        # J s
K_BOLTZMANN = 1.380649e-23    # J/K
EPSILON_0 = 8.8541878128e-12  # F/m
MU_BOHR = 9.2740100783e-24    # J/T

RB87_MASS = 1.443e-25         # kg
D1_WAVELENGTH = 794.979e-9    # m
REDUCED_DIPOLE = 2.537e-29    # C m, 5S1/2 -> 5P1/2
FPRIME_SPLITTING = TWO_PI * 816e6  # rad/s, excited-state hyperfine interval

GROUND_F1 = "ground_f1"
GROUND_F2 = "ground_f2"
EXCITED = "excited"
_LABELS = {GROUND_F1: "a", GROUND_F2: "b", EXCITED: "c"}  # see LevelScheme.label

SIGMA_MINUS = "sigma_minus"
SIGMA_PLUS = "sigma_plus"
PI = "pi"
LINEAR = "linear"

PROBE = "probe"
COUPLING = "coupling"

SCHEME_IDS = ("sigma_f2", "pi_f2", "sigma_f1")

# polarizations each field role admits
POLARIZATIONS = {
    PROBE: (SIGMA_MINUS, SIGMA_PLUS, LINEAR),
    COUPLING: (SIGMA_MINUS, SIGMA_PLUS, PI),
}

# power -> Rabi anchors, (watts, rad/s)
RABI_ANCHORS = {
    COUPLING: (15e-3, TWO_PI * 100e6),
    PROBE: (150e-6, TWO_PI * 10e6),
}

_POL_DELTA_M = {SIGMA_MINUS: -1, PI: 0, SIGMA_PLUS: +1}


class Sublevel(NamedTuple):
    manifold: str
    m: int
    f: int


class Transition(NamedTuple):
    """One dipole line between a ground and an excited sublevel.

    ``cg`` is the signed amplitude in decay normalization; the physical
    matrix element is cg * ``REDUCED_DIPOLE``.
    """

    lower: Sublevel
    upper: Sublevel
    polarization: str
    cg: float


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
        if self.which not in POLARIZATIONS:
            raise ValueError(f"unknown field role {self.which!r}")
        if self.rabi_scale < 0:
            raise ValueError("rabi_scale must be >= 0")
        allowed = POLARIZATIONS[self.which]
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


NO_STARK: Mapping[int, float] = MappingProxyType({})


class DriveLines(NamedTuple):
    """What one drive drives in a scheme; both tables are read-only."""

    lines: tuple[Transition, ...]  # ordered by ground m
    norm: float  # the largest |cg| of the lines, 1.0 if none
    partners: Mapping[Sublevel, Transition]  # first line into each excited sublevel
    far: Mapping[int, float]  # F=2 amplitude toward F'=1 by m (coupling only)


class LevelScheme(NamedTuple):
    """``index`` maps each sublevel to its position, ``lines`` each drive of
    ``POLARIZATIONS`` to its ``DriveLines``. Both are read-only mappings, so
    a scheme cannot be hashed: per-scheme tables are keyed by scheme_id."""

    scheme_id: str
    sublevels: tuple[Sublevel, ...]
    transitions: tuple[Transition, ...]
    far_level_detuning: float | None
    index: Mapping[Sublevel, int]
    lines: Mapping[tuple[str, str], DriveLines]

    def ground(self) -> tuple[Sublevel, ...]:
        return tuple(s for s in self.sublevels if s.manifold != EXCITED)

    def excited(self) -> tuple[Sublevel, ...]:
        return tuple(s for s in self.sublevels if s.manifold == EXCITED)

    def label(self, s: Sublevel) -> str:
        return f"{_LABELS[s.manifold]}{s.m + s.f + 1}"

    def by_label(self, label: str) -> Sublevel:
        for s in self.sublevels:
            if self.label(s) == label:
                return s
        raise KeyError(f"no sublevel labelled {label!r}")

    def decay_channels(self, upper: Sublevel) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.upper == upper and t.cg != 0.0)


def _resolve_lines(transitions, sublevels, drive: FieldDrive) -> DriveLines:
    manifold = GROUND_F1 if drive.which == PROBE else GROUND_F2
    pols = drive.components()
    lines = sorted((t for t in transitions if t.lower.manifold == manifold
                    and t.polarization in pols), key=lambda t: t.lower.m)
    top = max((abs(t.cg) for t in lines), default=0.0)
    # amplitude of each F=2 sublevel toward the far F'=1 level a coupling drives
    far = {s.m: decay_amplitude(s.f, s.m, 1, s.m + _POL_DELTA_M[drive.polarization])
           for s in sublevels if s.manifold == GROUND_F2 and drive.which == COUPLING}
    return DriveLines(tuple(lines), top if top > 0.0 else 1.0,
                      MappingProxyType({t.upper: t for t in reversed(lines)}),
                      MappingProxyType(far))


# Signed hyperfine factor of each D1 line, keyed (F, F'): the Racah
# coefficient (-1)^(F'+J+1+I) sqrt((2F'+1)(2J+1)) {J J' 1; F' F I} at
# J = J' = 1/2, I = 3/2. The squares are the relative strengths S_FF' of
# D. A. Steck, "Rubidium 87 D Line Data" (http://steck.us/alkalidata).
_HYPERFINE = {
    (1, 1): -math.sqrt(1 / 6),
    (1, 2): -math.sqrt(5 / 6),
    (2, 1): math.sqrt(1 / 2),
    (2, 2): math.sqrt(1 / 2),
}


def decay_amplitude(f_g, m_g, f_e, m_e) -> float:
    """Signed dipole amplitude for (F', m') -> (F, m) emission on the D1 line.

    The hyperfine factor times <F' m'; 1 q | F m> with q = m - m', from the
    j2 = 1 table of Condon & Shortley, *The Theory of Atomic Spectra* (1935).
    Summing the squares over all (F, m) reachable from a fixed (F', m')
    yields exactly 1. |q| > 1 or any other forbidden combination returns 0.0
    rather than raising.
    """
    q = m_g - m_e
    hyperfine = _HYPERFINE.get((f_g, f_e), 0.0)
    if abs(q) > 1 or abs(m_g) > f_g or abs(m_e) > f_e or hyperfine == 0.0:
        return 0.0
    j, m = f_e, m_g
    if f_g == j + 1:
        if q == 0:
            cg = math.sqrt((j - m + 1) * (j + m + 1) / ((2 * j + 1) * (j + 1)))
        else:
            cg = math.sqrt((j + q * m) * (j + q * m + 1) / ((2 * j + 1) * (2 * j + 2)))
    elif f_g == j:
        if q == 0:
            cg = m / math.sqrt(j * (j + 1))
        else:
            cg = -q * math.sqrt((j + q * m) * (j - q * m + 1) / (2 * j * (j + 1)))
    elif q == 0:
        cg = -math.sqrt((j - m) * (j + m) / (j * (2 * j + 1)))
    else:
        cg = math.sqrt((j - q * m) * (j - q * m + 1) / (2 * j * (2 * j + 1)))
    return hyperfine * cg


@functools.cache
def build_level_scheme(scheme_id: str) -> LevelScheme:
    """Assemble a scheme's sublevels, sigma/pi transition table and what they
    determine, once per id: a scheme is immutable and depends on its id alone."""
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
            transitions.append(
                Transition(g, e, pol, decay_amplitude(g.f, g.m, e.f, e.m)))
    transitions = tuple(transitions)
    return LevelScheme(
        scheme_id=scheme_id,
        sublevels=sublevels,
        transitions=transitions,
        far_level_detuning=FPRIME_SPLITTING if scheme_id == "sigma_f2" else None,
        index=MappingProxyType({s: i for i, s in enumerate(sublevels)}),
        lines=MappingProxyType({
            (which, pol): _resolve_lines(transitions, sublevels, FieldDrive(which, pol, 0.0))
            for which, pols in POLARIZATIONS.items() for pol in pols}),
    )


def coupling_polarization(scheme_id: str) -> str:
    return PI if scheme_id == "pi_f2" else SIGMA_MINUS


def stark_shifts(coupling: FieldDrive, scheme: LevelScheme) -> Mapping[int, float]:
    """Light shifts delta_b = |Omega_far|^2 / (4 Delta) of the F=2 sublevels, by m.

    The coupling also drives each b sublevel toward the far F'=1 manifold
    (detuned by ``scheme.far_level_detuning``); the resulting shift moves the
    two-photon resonances of the affected lambda systems. Only ``sigma_f2``
    has a far manifold; the other schemes get no shifts.
    """
    if scheme.far_level_detuning is None or coupling.which != COUPLING:
        return NO_STARK
    drive = scheme.lines[COUPLING, coupling.polarization]
    return {m: abs(coupling.rabi_scale * amp / drive.norm) ** 2
            / (4.0 * scheme.far_level_detuning) for m, amp in drive.far.items()}


def rabi_from_power(power: float, which: str) -> float:
    """Rabi frequency from beam power by square-root scaling off one anchor."""
    if not power >= 0:
        raise ValueError("power must be >= 0")
    p_ref, omega_ref = RABI_ANCHORS[which]
    return omega_ref * math.sqrt(power / p_ref)


class ProbePathway(NamedTuple):
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
    stark: Mapping[int, float] = NO_STARK,
) -> tuple[ProbePathway, ...]:
    """Absorption pathways of one circular probe component, ordered by ground m."""
    if component not in (SIGMA_MINUS, SIGMA_PLUS):
        raise ValueError("component must be a circular polarization")
    if component not in probe.components():
        return ()
    probe_norm = scheme.lines[probe.which, probe.polarization].norm
    coupled = scheme.lines[coupling.which, coupling.polarization]
    pathways = []
    for t in scheme.lines[PROBE, component].lines:
        partner = None
        coupling_rabi = 0.0
        if (ct := coupled.partners.get(t.upper)) is not None:
            partner = ct.lower
            coupling_rabi = coupling.rabi_scale * ct.cg / coupled.norm
        pathways.append(
            ProbePathway(
                ground=t.lower,
                excited=t.upper,
                probe_rabi=probe.rabi_scale * t.cg / probe_norm,
                probe_dipole=t.cg * REDUCED_DIPOLE,
                partner=partner,
                coupling_rabi=coupling_rabi,
                stark_shift=stark.get(partner.m, 0.0) if partner is not None else 0.0,
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

