"""Steady-state density-matrix dynamics of the driven multi-sublevel atom.

The interaction-picture Hamiltonian is diagonal in detunings: excited
sublevels sit at -probe detuning, F=2 sublevels at -(two-photon detuning)
minus their light shift, F=1 at zero, each plus its Zeeman shift. Field
couplings enter as -Omega/2 on the driven pairs.

Relaxation is phenomenological, with independent total rates per element
class: excited populations and excited-excited coherences decay at the
natural rate Gamma; optical coherences (excited-ground) at gamma_ca;
F2-F1 ground coherences at gamma_ba; coherences within one ground manifold
at gamma_ground. Spontaneous emission repopulates both ground manifolds
through the signed channel amplitudes, pairing channels of equal emitted
polarization within one ground manifold, which feeds same-manifold ground
coherences as well as populations (the structure the amplitude products
sqrt(6)/12 and 1/4 pin down). Cross-manifold pairs are never fed: the two
photons differ by the ground hyperfine splitting, so their modes are
orthogonal and decay cannot build an F2-F1 coherence.

The named coherence rates are totals: transit of atoms through the beams is
modelled purely as a slow exchange of ground-state population toward the
uniform ground mixture, leaving coherence linewidths untouched. Without that
exchange the outermost F=2 sublevel is a one-way optical-pumping trap (it is
coupled to nothing but decay inflow) and the only steady state is everything
parked there; the default rate is calibrated against the steady-state
F=1 populations quoted for this system (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom import (
    EXCITED,
    GROUND_F1,
    GROUND_F2,
    NO_STARK,
    FieldDrive,
    LevelScheme,
    ProbePathway,
    StarkShifts,
    Sublevel,
    ZeemanField,
    TWO_PI,
    probe_pathways,
    zeeman_shift,
)

__all__ = [
    "RelaxationRates",
    "SteadyStateError",
    "check_rate",
    "build_hamiltonian",
    "build_liouvillian",
    "probe_detuning_slope",
    "solve_steady_state",
    "ground_populations",
    "analytic_coherences",
    "pathway_denominator",
    "equation_dump",
    "coupled_element_count",
    "level_index",
]

DEFAULT_TRANSIT_RATE = TWO_PI * 1.2e6

# Rates that must be strictly positive; all others may be zero. A positive
# gamma_ca keeps every pathway denominator in the right half plane, which is
# where the Faddeeva form of the Doppler average holds (see spectra).
_POSITIVE_RATES = ("gamma", "gamma_ca")


def check_rate(field: str, value: float, name: str | None = None) -> None:
    """Raise ValueError unless rate ``field`` is finite and non-negative, and
    positive for gamma and gamma_ca. ``name`` is how the message
    refers to the value (default: ``field``)."""
    positive = field in _POSITIVE_RATES
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name or field} must be finite and {bound}")


@dataclass(frozen=True)
class RelaxationRates:
    """Total relaxation rates (rad/s) for the element classes described above."""

    gamma: float = TWO_PI * 5.75e6
    gamma_ca: float = TWO_PI * 3.5e6
    gamma_ba: float = TWO_PI * 1.1e6
    gamma_ground: float | None = None   # None -> same as gamma_ba
    gamma_transit: float = DEFAULT_TRANSIT_RATE

    def __post_init__(self):
        for field in ("gamma", "gamma_ca", "gamma_ba", "gamma_ground", "gamma_transit"):
            value = getattr(self, field)
            if value is not None:
                check_rate(field, value)

    @property
    def ground_coherence(self) -> float:
        return self.gamma_ba if self.gamma_ground is None else self.gamma_ground


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; carries the null-space dimension if known."""

    def __init__(self, message: str, null_dim: int | None = None):
        super().__init__(message)
        self.null_dim = null_dim


def level_index(scheme: LevelScheme) -> dict[Sublevel, int]:
    return {s: i for i, s in enumerate(scheme.sublevels)}


def build_hamiltonian(
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
    stark: StarkShifts = NO_STARK,
    zeeman: ZeemanField | None = None,
) -> np.ndarray:
    idx = level_index(scheme)
    n = len(scheme.sublevels)
    h = np.zeros((n, n), dtype=complex)
    two_photon = probe.detuning - coupling.detuning
    for s, i in idx.items():
        z = zeeman_shift(s, zeeman)
        if s.manifold == EXCITED:
            h[i, i] = -probe.detuning + z
        elif s.manifold == GROUND_F2:
            h[i, i] = -two_photon - stark.of(s) + z
        else:
            h[i, i] = z
    for drive in (probe, coupling):
        for t in scheme.driven_transitions(drive):
            omega = scheme.rabi_of(drive, t)
            g, e = idx[t.lower], idx[t.upper]
            h[e, g] += -0.5 * omega
            h[g, e] += -0.5 * omega
    return h


def build_liouvillian(
    scheme: LevelScheme, h: np.ndarray, rates: RelaxationRates
) -> np.ndarray:
    """Superoperator L with d vec(rho)/dt = L vec(rho), row-major vec."""
    n = len(scheme.sublevels)
    if h.shape != (n, n):
        raise ValueError("hamiltonian does not match the scheme")
    idx = level_index(scheme)
    eye = np.eye(n)
    lio = -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    decay = np.zeros((n, n))
    for r, sr in enumerate(scheme.sublevels):
        for c, sc in enumerate(scheme.sublevels):
            r_exc = sr.manifold == EXCITED
            c_exc = sc.manifold == EXCITED
            if r_exc and c_exc:
                decay[r, c] = rates.gamma
            elif r_exc or c_exc:
                decay[r, c] = rates.gamma_ca
            elif r != c:
                same = sr.manifold == sc.manifold
                decay[r, c] = rates.ground_coherence if same else rates.gamma_ba
    lio -= np.diag(decay.reshape(-1))

    channels = [
        (idx[t.lower], idx[t.upper], t.lower.m - t.upper.m, t.cg, t.lower.manifold)
        for e in scheme.excited()
        for t in scheme.decay_channels(e)
    ]
    # Emission into different ground hyperfine manifolds leaves photons split
    # by the ground splitting (GHz), far outside the linewidth, so decay only
    # builds coherence between ground pairs within one manifold (same q).
    for g1, e1, q1, a1, m1 in channels:
        for g2, e2, q2, a2, m2 in channels:
            if q1 == q2 and m1 == m2:
                lio[g1 * n + g2, e1 * n + e2] += rates.gamma * a1 * a2

    grounds = [idx[s] for s in scheme.ground()]
    fill = rates.gamma_transit / len(grounds)
    for g in grounds:
        lio[g * n + g, g * n + g] -= rates.gamma_transit
        for g2 in grounds:
            lio[g * n + g, g2 * n + g2] += fill
    return lio


def probe_detuning_slope(scheme: LevelScheme) -> np.ndarray:
    """Derivative of the superoperator diagonal by the probe detuning.

    The probe detuning enters the Hamiltonian only on its diagonal, as -1 on
    the excited and F=2 sublevels and 0 on F=1 (see ``build_hamiltonian``).
    So moving it by x adds x * slope to the diagonal of ``build_liouvillian``
    and changes nothing else; element (r, c) of the slope is -i (s_r - s_c).
    """
    s = np.array([0.0 if sub.manifold == GROUND_F1 else -1.0
                  for sub in scheme.sublevels])
    return -1j * (s[:, None] - s[None, :]).reshape(-1)


def solve_steady_state(lio: np.ndarray, residual_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one null vector of the superoperator, as a density matrix.

    One redundant population row is replaced by the trace constraint and the
    system solved densely. The residual ||L rho|| (relative to ||L|| ||rho||)
    must come out below ``residual_tol``; if not, the null space is sized via
    SVD to distinguish a degenerate steady state from plain ill-conditioning.
    """
    n2 = lio.shape[0]
    n = math.isqrt(n2)
    if n * n != n2 or lio.shape != (n2, n2):
        raise ValueError("superoperator must be square with square side")
    a = lio.copy()
    trace_row = np.zeros(n2, dtype=complex)
    trace_row[:: n + 1] = 1.0
    a[0, :] = trace_row
    rhs = np.zeros(n2, dtype=complex)
    rhs[0] = 1.0
    scale = np.linalg.norm(lio)
    try:
        vec = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        null_dim = _null_space_dim(lio, scale)
        raise SteadyStateError(
            f"steady-state system is singular (null-space dimension {null_dim}); "
            "no unique stationary density matrix", null_dim,
        ) from exc
    residual = np.linalg.norm(lio @ vec) / (scale * np.linalg.norm(vec))
    if residual > residual_tol:
        null_dim = _null_space_dim(lio, scale)
        raise SteadyStateError(
            f"steady-state residual {residual:.2e} exceeds {residual_tol:.0e} "
            f"(null-space dimension {null_dim})", null_dim,
        )
    return vec.reshape(n, n)


def _null_space_dim(lio: np.ndarray, scale: float) -> int:
    sv = np.linalg.svd(lio, compute_uv=False)
    return int(np.sum(sv < scale * 1e-12))


def ground_populations(
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
    rates: RelaxationRates,
    stark: StarkShifts = NO_STARK,
    zeeman: ZeemanField | None = None,
) -> tuple[float, float, float]:
    """Steady-state populations of the three F=1 sublevels, ascending m."""
    h = build_hamiltonian(scheme, probe, coupling, stark, zeeman)
    rho = solve_steady_state(build_liouvillian(scheme, h, rates))
    idx = level_index(scheme)
    return tuple(
        float(rho[idx[s], idx[s]].real)
        for s in scheme.sublevels
        if s.manifold == GROUND_F1
    )


def population_map(rho: np.ndarray, scheme: LevelScheme) -> dict[Sublevel, float]:
    idx = level_index(scheme)
    return {s: float(rho[i, i].real) for s, i in idx.items()}


def pathway_denominator(
    p: ProbePathway,
    probe_detuning,
    coupling_detuning: float,
    rates: RelaxationRates,
    zeeman: ZeemanField | None = None,
):
    """Dressed line denominator of one probe pathway for an atom at rest,

        gamma_ca - i Delta1 + (|Omega_c|^2/4) / (gamma_ba - i Delta2),

    with Delta1 the one-photon and Delta2 the two-photon detuning, the
    partner's light shift and any Zeeman offsets folded in. A pathway with
    no coupling partner drops the EIT term. ``probe_detuning`` may be an
    array; the result then has its shape.
    """
    z_g = zeeman_shift(p.ground, zeeman)
    z_e = zeeman_shift(p.excited, zeeman)
    denom = rates.gamma_ca - 1j * (probe_detuning - (z_e - z_g))
    if p.partner is not None and p.coupling_rabi != 0.0:
        z_b = zeeman_shift(p.partner, zeeman)
        two_photon = probe_detuning - coupling_detuning + p.stark_shift + z_g - z_b
        eit = abs(p.coupling_rabi) ** 2 / 4.0
        denom = denom + eit / (rates.gamma_ba - 1j * two_photon)
    return denom


def analytic_coherences(
    populations: dict[Sublevel, float],
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
    rates: RelaxationRates,
    stark: StarkShifts = NO_STARK,
    zeeman: ZeemanField | None = None,
) -> dict[tuple[str, str], complex]:
    """Weak-probe closed forms for the optical coherences, keyed (upper, lower).

    Each driven route gives rho_eg = (i Omega_p/2) rho_gg / D, with D the
    route's ``pathway_denominator``.
    """
    out = {}
    for component in probe.components():
        for p in probe_pathways(scheme, probe, coupling, component, stark):
            denom = pathway_denominator(
                p, probe.detuning, coupling.detuning, rates, zeeman)
            rho_gg = populations.get(p.ground, 0.0)
            value = 0.5j * p.probe_rabi * rho_gg / denom
            out[(scheme.label(p.excited), scheme.label(p.ground))] = value
    return out


def equation_dump(lio: np.ndarray, scheme: LevelScheme) -> str:
    """One line per nonzero superoperator entry, in sublevel labels."""
    n = len(scheme.sublevels)
    labels = [scheme.label(s) for s in scheme.sublevels]
    tol = 1e-12 * np.abs(lio).max()
    lines = []
    for row in range(n * n):
        r, c = divmod(row, n)
        for col in np.flatnonzero(np.abs(lio[row]) > tol):
            rr, cc = divmod(int(col), n)
            z = lio[row, col]
            lines.append(
                f"d rho[{labels[r]},{labels[c]}]/dt += ({z.real:+.6e}{z.imag:+.6e}j)"
                f" * rho[{labels[rr]},{labels[cc]}]"
            )
    return "\n".join(lines)


def coupled_element_count(
    lio: np.ndarray,
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
) -> int:
    """Number of density-matrix elements the probe coherences depend on.

    Directed reachability over nonzero superoperator entries, starting from
    the driven optical-coherence elements; an element and its conjugate are
    counted separately (both have equations of their own).
    """
    n = len(scheme.sublevels)
    idx = level_index(scheme)
    tol = 1e-12 * np.abs(lio).max()
    seeds = []
    for component in probe.components():
        for p in probe_pathways(scheme, probe, coupling, component):
            if p.probe_rabi != 0.0:
                seeds.append((idx[p.excited], idx[p.ground]))
    seen: set[tuple[int, int]] = set()
    stack = []
    for r, c in seeds:
        for e in ((r, c), (c, r)):
            if e not in seen:
                seen.add(e)
                stack.append(e)
    while stack:
        r, c = stack.pop()
        for col in np.flatnonzero(np.abs(lio[r * n + c]) > tol):
            rr, cc = divmod(int(col), n)
            for e in ((rr, cc), (cc, rr)):
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
    return len(seen)
