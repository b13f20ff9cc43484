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

The probe detuning moves only the superoperator diagonal, and only on the
F=1 coherences with F=2 and the excited manifold. So the steady states over
a whole grid of probe detunings come from one factorization at two-photon
resonance plus a low-rank (Woodbury) update per detuning
(``steady_state_populations``); every solution is checked against its own
superoperator, as ``solve_steady_state`` checks a single one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

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
    MHZ,
    probe_pathways,
    zeeman_shift,
)

__all__ = [
    "RelaxationRates",
    "SteadyStateError",
    "build_hamiltonian",
    "build_liouvillian",
    "probe_detuning_slope",
    "solve_steady_state",
    "steady_state_populations",
    "pathway_denominator",
    "coupled_element_count",
    "level_index",
]

# Largest accepted steady-state residual ||L rho|| / (||L||_F ||rho||).
_RESIDUAL_TOL = 1e-9

# Rates that must be strictly positive; all others may be zero. A positive
# gamma_ca keeps every pathway denominator in the right half plane, which is
# where the Faddeeva form of the Doppler average holds (see spectra).
_POSITIVE_RATES = ("gamma", "gamma_ca")


@dataclass(frozen=True)
class RelaxationRates:
    """Total relaxation rates (rad/s) for the element classes described above.

    Every rate must be finite and >= 0, and gamma and gamma_ca > 0.
    """

    gamma: float = 5.75 * MHZ
    gamma_ca: float = 3.5 * MHZ
    gamma_ba: float = 1.1 * MHZ
    gamma_ground: float | None = None   # None -> same as gamma_ba
    gamma_transit: float = 1.2 * MHZ

    def __post_init__(self):
        for field in ("gamma", "gamma_ca", "gamma_ba", "gamma_ground", "gamma_transit"):
            value = getattr(self, field)
            positive = field in _POSITIVE_RATES
            if value is not None and not (
                    math.isfinite(value) and (value > 0 if positive else value >= 0)):
                bound = "> 0" if positive else ">= 0"
                raise ValueError(f"{field} must be finite and {bound}")

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
    b_field: float = 0.0,
) -> np.ndarray:
    """Interaction-picture Hamiltonian (rad/s) of the module docstring;
    ``b_field`` in tesla."""
    idx = level_index(scheme)
    n = len(scheme.sublevels)
    h = np.zeros((n, n), dtype=complex)
    two_photon = probe.detuning - coupling.detuning
    for s, i in idx.items():
        z = zeeman_shift(s, b_field)
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
    # -i[h, rho]: rho[i, k] gets -i h[i, j] rho[j, k] + i rho[i, l] h[l, k]
    lio = np.zeros((n * n, n * n), dtype=complex)
    block = lio.reshape(n, n, n, n)
    for k in range(n):
        block[:, k, :, k] -= 1j * h
        block[k, :, k, :] += 1j * h.T

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
    lio.flat[::n * n + 1] -= decay.reshape(-1)

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


def solve_steady_state(lio: np.ndarray) -> np.ndarray:
    """Unique trace-one null vector of the superoperator, as a density matrix.

    One redundant population row is replaced by the trace constraint and the
    system solved densely. The residual ||L rho|| (relative to ||L|| ||rho||)
    must come out below ``_RESIDUAL_TOL``; if not, the null space is sized via
    SVD to distinguish a degenerate steady state from plain ill-conditioning.
    A non-finite superoperator or solution raises with no null-space size.
    """
    n = _side(lio)
    (vec,) = _steady_states(lio.copy(), np.zeros(n * n), [0.0], np.arange(n * n))
    return vec.reshape(n, n)


def steady_state_populations(lio: np.ndarray, slope: np.ndarray, offsets) -> np.ndarray:
    """Steady-state populations (the diagonal of rho) of the superoperator
    ``lio + offset * diag(slope)``, one row per entry of ``offsets``.

    One factorization serves every offset. With A0 the system of ``lio``
    (trace row in place of row 0), J the entries that ``slope`` moves and
    d = slope[J], A0 is solved for [e0, e_J], giving x0 and Y. By the
    Woodbury identity each offset's solution is x = x0 - Y c, where c solves
    the small system (I + offset K) c = offset (d x0[J]) with K = diag(d) Y[J].
    K is brought to Schur form Q T Q^H once (Q unitary, so nothing hangs on
    eigenvector conditioning), and every offset's system is then one
    back substitution with the triangular I + offset T. When every offset is
    zero, J is empty and this is a single solve. Each solution passes the
    residual test of ``solve_steady_state`` on its own unmodified
    superoperator, whose Frobenius norm follows in closed form from the
    diagonal.

    ``lio`` must be writeable: its row 0 holds the trace row during the
    factorization, so the superoperator is never copied, and is restored on
    return.
    """
    n = _side(lio)
    return _steady_states(lio, slope, offsets, np.arange(0, n * n, n + 1)).real


# Offsets per block in ``_steady_states``: each temporary then holds 32
# solution columns, a fifth of one superoperator for the 13-level schemes.
_OFFSET_BLOCK = 32


def _side(lio: np.ndarray) -> int:
    n2 = lio.shape[0]
    n = math.isqrt(n2)
    if n * n != n2 or lio.shape != (n2, n2):
        raise ValueError("superoperator must be square with square side")
    return n


def _steady_states(lio, slope, offsets, rows) -> np.ndarray:
    """Entries ``rows`` of vec(rho) for the checked steady state of
    ``lio + offset * diag(slope)``, one row per offset (see
    ``steady_state_populations``). ``lio`` serves as scratch for the trace
    row and is restored on return."""
    n2 = lio.shape[0]
    offsets = np.asarray(offsets, dtype=float)
    # row 0 holds the trace constraint, which no offset moves
    moving = np.flatnonzero(slope[1:]) + 1 if offsets.any() else np.empty(0, int)
    d = slope[moving]
    try:
        sol = _solve_with_trace_row(lio, moving)
    except np.linalg.LinAlgError as exc:
        raise _failure(
            lio, "steady-state system is singular (null-space dimension {}); "
            "no unique stationary density matrix") from exc
    _check_finite(sol)
    x0 = sol[:, 0].copy()
    t, yq, b = np.empty((0, 0)), sol[:, 1:], d  # all empty when no entry moves
    if moving.size:
        t, q = schur(d[:, None] * sol[moving, 1:], output="complex")
        yq = sol[:, 1:] @ q
        b = q.conj().T @ (d * x0[moving])
    del sol  # only x0 and Y Q are needed from here on

    # ||L + offset diag(slope)||_F^2
    #   = ||L||_F^2 + 2 offset Re(diag(L)^H slope) + offset^2 ||slope||^2
    norm2 = np.vdot(lio, lio).real
    cross = 2.0 * np.vdot(np.diagonal(lio), slope).real
    slope2 = np.vdot(slope, slope).real
    out = np.empty((offsets.size, rows.size), dtype=complex)
    for start in range(0, offsets.size, _OFFSET_BLOCK):
        delta = offsets[start:start + _OFFSET_BLOCK]
        # Q^H c for every offset: (I + offset T) u = offset b, bottom row first
        scale = delta / (1.0 + delta * np.diagonal(t)[:, None])
        u = np.empty_like(scale)
        for i in range(moving.size - 1, -1, -1):
            u[i] = scale[i] * (b[i] - t[i, i + 1:] @ u[i + 1:])
        x = x0[:, None] - yq @ u
        resid = lio @ x
        resid += slope[:, None] * delta * x
        residual = np.linalg.norm(resid, axis=0) / (
            np.sqrt(norm2 + delta * (cross + delta * slope2))
            * np.linalg.norm(x, axis=0))
        failed = np.flatnonzero(~(residual <= _RESIDUAL_TOL))
        if failed.size:
            k = failed[0]
            shifted = lio.copy()
            shifted.reshape(-1)[:: n2 + 1] += delta[k] * slope
            raise _failure(
                shifted, f"steady-state residual {residual[k]:.2e} exceeds "
                f"{_RESIDUAL_TOL:.0e} (null-space dimension {{}})", x[:, k])
        out[start:start + delta.size] = x[rows].T
    return out


def _solve_with_trace_row(lio: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """Solve ``lio``, with its row 0 replaced by the trace row, for e_0 and
    then e_k for each k in ``moving``. The row is replaced in place, so no
    copy of the superoperator is made, and restored on return."""
    n2 = lio.shape[0]
    rhs = np.zeros((n2, 1 + moving.size), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[moving, np.arange(1, 1 + moving.size)] = 1.0
    saved = lio[0].copy()
    lio[0] = 0.0
    lio[0, :: math.isqrt(n2) + 1] = 1.0
    try:
        return np.linalg.solve(lio, rhs)
    finally:
        lio[0] = saved


def _failure(lio: np.ndarray, template: str, *solutions) -> SteadyStateError:
    """The error for a failed solve of ``lio``: ``template`` filled in with the
    null-space dimension from an SVD, after ``_check_finite``."""
    _check_finite(lio, *solutions)
    sv = np.linalg.svd(lio, compute_uv=False)
    null_dim = int(np.sum(sv < np.linalg.norm(lio) * 1e-12))
    return SteadyStateError(template.format(null_dim), null_dim)


def _check_finite(*arrays) -> None:
    """Raise unless every array is finite: a non-finite superoperator or
    solution leaves no null space for the SVD to size (it fails on NaN)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise SteadyStateError("steady-state superoperator or solution is not finite")


def pathway_denominator(
    p: ProbePathway,
    probe_detuning,
    coupling_detuning: float,
    rates: RelaxationRates,
    b_field: float = 0.0,
):
    """Dressed line denominator of one probe pathway for an atom at rest,

        gamma_ca - i Delta1 + (|Omega_c|^2/4) / (gamma_ba - i Delta2),

    with Delta1 the one-photon and Delta2 the two-photon detuning, the
    partner's light shift and the Zeeman offsets of ``b_field`` (tesla)
    folded in. A pathway with no coupling partner drops the EIT term.
    ``probe_detuning`` may be an array; the result then has its shape.
    """
    z_g = zeeman_shift(p.ground, b_field)
    z_e = zeeman_shift(p.excited, b_field)
    denom = rates.gamma_ca - 1j * (probe_detuning - (z_e - z_g))
    if p.partner is not None and p.coupling_rabi != 0.0:
        z_b = zeeman_shift(p.partner, b_field)
        two_photon = probe_detuning - coupling_detuning + p.stark_shift + z_g - z_b
        eit = abs(p.coupling_rabi) ** 2 / 4.0
        denom = denom + eit / (rates.gamma_ba - 1j * two_photon)
    return denom


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
