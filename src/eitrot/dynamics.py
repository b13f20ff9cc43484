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

The superoperator splits into independent blocks, and the steady state is
solved on the one that holds the populations (``population_block``: 85 of
169 elements for a linear probe in ``sigma_f2``); the rest of rho is zero.
The sweeps assemble that block only (``_population_record``), with the same
scatter that writes the whole superoperator, so its entries are bitwise
those of the whole.
The superoperator maps Hermitian rho to Hermitian rho, so the block holds
the transpose rho_ji of each element rho_ij and is solved in real
coordinates: x_p = rho_p for a population and, for each pair u = ij (i < j)
and v = ji, x_u = Re rho_u and x_v = Im rho_u. With rho = T x, the real
system R is Re(L T), with Im(L T)[u] on the v rows.
The probe detuning moves only the superoperator diagonal, and only on the
F=1 coherences with F=2 and the excited manifold, by i sigma on u (-i sigma
on v): in real coordinates an offset delta rotates each such pair, row u
gaining -sigma delta x_v and row v +sigma delta x_u. So the steady states
over a whole grid of probe detunings come from one factorization of the
block at two-photon resonance plus a low-rank (Woodbury) update per detuning
(or per Doppler shift of the excited levels): ``_factor`` brings it to
pole-residue form, ``_evaluate`` reads that at any offsets, and every
solution passes one residual test (``_check_residual``) on its own
superoperator: ||L rho|| / (||L||_F ||rho||) in real coordinates, where u
and v count twice: |rho_u|^2 + |rho_v|^2 = 2 (x_u^2 + x_v^2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .atom import (
    EXCITED,
    GROUND_F1,
    GROUND_F2,
    NO_STARK,
    FieldDrive,
    LevelScheme,
    ProbePathway,
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
    "population_block",
    "solve_steady_state",
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

    Every rate must be finite and >= 0, and gamma and gamma_ca > 0. Nothing
    more is required: the relaxation need not be completely positive (a
    Lindblad generator), and outside that domain rho may have negative
    eigenvalues. With t = 7/8 gamma_transit (the rate at which transit
    empties each of the 8 ground sublevels), a = ground_coherence - t,
    b = gamma_ba - t and c = gamma_ca - (gamma + t)/2, the domain is
    a, b, c >= 0 with [[2a/3 - 2c, b - 2c], [b - 2c, 4a/5 - 2c]] negative
    semidefinite (from the Choi matrix). The defaults lie inside it.
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


class NumericError(Exception):
    """A run produced no usable result, such as a scan step without peaks."""


class SteadyStateError(NumericError):
    """Steady-state solve failed; the message gives the null-space dimension
    if it was sized."""


def level_index(scheme: LevelScheme) -> Mapping[Sublevel, int]:
    """Position of each sublevel: the scheme's read-only ``index``."""
    return scheme.index


def build_hamiltonian(
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
    stark: Mapping[int, float] = NO_STARK,
    b_field: float = 0.0,
) -> np.ndarray:
    """Interaction-picture Hamiltonian (rad/s) of the module docstring;
    ``b_field`` in tesla."""
    idx = scheme.index
    n = len(scheme.sublevels)
    h = np.zeros((n, n), dtype=complex)
    two_photon = probe.detuning - coupling.detuning
    for s, i in idx.items():
        z = zeeman_shift(s, b_field)
        if s.manifold == EXCITED:
            h[i, i] = -probe.detuning + z
        elif s.manifold == GROUND_F2:
            h[i, i] = -two_photon - stark.get(s.m, 0.0) + z
        else:
            h[i, i] = z
    for drive in (probe, coupling):
        driven = scheme.lines[drive.which, drive.polarization]
        for t in driven.lines:
            omega = drive.rabi_scale * t.cg / driven.norm
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
    tables = _SCATTERS.get(scheme.scheme_id)
    if tables is None:
        tables = _SCATTERS[scheme.scheme_id] = _scatter_tables(scheme, np.arange(n * n))
    return _assemble(tables, h, rates)


# Scatter tables, built on first use: of the whole superoperator by
# scheme_id, of its population block by (scheme_id, bytes of h != 0). Keys
# hold the scheme_id: a scheme holds read-only mappings and cannot be hashed.
_SCATTERS: dict = {}


class _Scatter(NamedTuple):
    """Where ``build_liouvillian`` writes its terms in the superoperator
    restricted to the flat vec(rho) elements ``index`` (ascending, every
    population among them), as flat positions [0] in that m x m matrix: -i h
    and +i h (``minus``, ``plus``) from the flat entries [1] of h, the rate
    ``classes`` of ``index`` on the diagonal, the decay ``inflow`` with its two
    amplitudes [1] and [2], and transit among the ``grounds`` (``transit``
    is their ``np.ix_``). The positions of the ``populations``, the
    ``slope`` on ``index`` and, for a population block, its ``real``
    coordinates (``_real_coordinates``) serve the solver."""

    index: np.ndarray
    minus: tuple
    plus: tuple
    classes: np.ndarray
    inflow: tuple
    grounds: np.ndarray
    transit: tuple
    populations: np.ndarray
    slope: np.ndarray
    real: tuple = ()


def _scatter_tables(scheme: LevelScheme, index: np.ndarray) -> _Scatter:
    """The ``_Scatter`` of ``index``. Rate classes: 0 none, 1 gamma,
    2 gamma_ca, 3 ground coherence, 4 gamma_ba."""
    n = len(scheme.sublevels)
    m = index.size
    at = np.full(n * n, -1)
    at[index] = np.arange(m)

    def place(rows, cols, *values):
        r, c = at[rows], at[cols]
        keep = (r >= 0) & (c >= 0)
        return (r[keep] * m + c[keep], *(np.asarray(v)[keep] for v in values))

    # -i[h, rho]: rho[i, k] gets -i h[i, j] rho[j, k] + i rho[i, j] h[j, k]
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    manifold = np.array([s.manifold for s in scheme.sublevels])
    exc = manifold == EXCITED
    classes = np.select(
        [exc[:, None] & exc, exc[:, None] | exc, np.eye(n, dtype=bool),
         manifold[:, None] == manifold], [1, 2, 0, 3], 4).reshape(-1)
    idx = scheme.index
    channels = [
        (idx[t.lower], idx[t.upper], t.lower.m - t.upper.m, t.cg, t.lower.manifold)
        for e in scheme.excited()
        for t in scheme.decay_channels(e)
    ]
    # Emission into different ground hyperfine manifolds leaves photons split
    # by the ground splitting (GHz), far outside the linewidth, so decay only
    # builds coherence between ground pairs within one manifold (same q).
    inflow = place(*(np.array(v) for v in zip(*(
        (g1 * n + g2, e1 * n + e2, a1, a2)
        for g1, e1, q1, a1, m1 in channels
        for g2, e2, q2, a2, m2 in channels
        if q1 == q2 and m1 == m2
    ))))
    # Moving the probe detuning by x moves the diagonal of h by x s, with s -1
    # on the excited and F=2 sublevels and 0 on F=1 (see build_hamiltonian),
    # so it adds x * slope, slope (r, c) = -i (s_r - s_c), to the
    # superoperator diagonal and changes nothing else.
    s = np.where(manifold == GROUND_F1, 0.0, -1.0)
    slope = -1j * (s[:, None] - s).reshape(-1)
    grounds = at[np.flatnonzero(~exc) * (n + 1)]
    return _Scatter(
        index, place(i * n + k, j * n + k, i * n + j),
        place(i * n + k, i * n + j, j * n + k), classes[index], inflow,
        grounds, np.ix_(grounds, grounds), np.flatnonzero(index % (n + 1) == 0),
        slope[index])


def _real_coordinates(index: np.ndarray, n: int) -> tuple:
    """Real coordinates (module docstring) of the block over ``index``, as
    (transpose, first, second, kind, weight): the position of the transpose
    of each element, the positions in F, the block's flat ``_parts``, from
    which the m x m system R takes its entries, R[r, k] = F[first[j]] +
    F[second[j]] kind[k] with j = r m + k, kind, +1 on u, -1 on v and 0 on a
    population, and the weight in norms, 1 on a population and 2 otherwise.
    Raises unless every transpose is in ``index``."""
    m = index.size
    at = np.full(n * n, -1)
    at[index] = np.arange(m)
    rows, cols = np.divmod(index, n)
    transpose = at[cols * n + rows]
    if (transpose < 0).any():
        raise SteadyStateError(
            "population block is not closed under transposition: the "
            "superoperator does not map Hermitian rho to Hermitian rho")
    k = np.arange(m)
    kind = np.sign(transpose - k)
    v = kind < 0
    # Row r of R reads row r of L, or row u for r = v. Column k of L T is
    # L[:, k] (population), L[:, k] + L[:, v] (u) or i (L[:, u] - L[:, k])
    # (v); the real part of the last is Im L[:, k] - Im L[:, u], its
    # imaginary part Re L[:, u] - Re L[:, k] (hence ``swap``).
    imag = v[:, None] ^ v
    here = (np.minimum(k, transpose)[:, None] * m + k) * 2 + imag
    there = here + (transpose - k) * 2
    swap = v[:, None] & v
    return (transpose, np.where(swap, there, here).reshape(-1),
            np.where(swap, here, there).reshape(-1), kind.astype(float),
            np.where(kind, 2.0, 1.0))


def _assemble(t: _Scatter, h: np.ndarray, rates: RelaxationRates) -> np.ndarray:
    """The superoperator restricted to ``t.index``. Each entry goes through
    the operations of the whole assembly in the same order, so it is bitwise
    that of ``build_liouvillian``."""
    m = t.index.size
    lio = np.zeros((m, m), dtype=complex)
    flat = lio.reshape(-1)
    ih = 1j * h.reshape(-1)
    flat[t.minus[0]] -= ih[t.minus[1]]
    flat[t.plus[0]] += ih[t.plus[1]]
    rate = np.array([0.0, rates.gamma, rates.gamma_ca, rates.ground_coherence,
                     rates.gamma_ba])
    flat[:: m + 1] -= rate[t.classes]
    at, amp1, amp2 = t.inflow
    flat[at] += rates.gamma * amp1 * amp2
    lio[t.grounds, t.grounds] -= rates.gamma_transit
    lio[t.transit] += rates.gamma_transit / t.grounds.size
    return lio


def population_block(lio: np.ndarray) -> np.ndarray:
    """Flat indices (row-major vec) of the population block of ``lio``: the
    elements of rho that a population reaches in the undirected graph of the
    nonzero superoperator entries.

    The superoperator maps the block into itself and the rest into the rest,
    and the trace reads populations only. So the block alone fixes the
    populations, and ``solve_steady_state`` returns the steady state that is
    zero off the block.
    """
    n = _side(lio)
    linked = (_parts(lio) != 0).reshape(n * n, n * n, 2).any(axis=2)
    reach = np.zeros(n * n, dtype=bool)
    reach[:: n + 1] = True
    return np.flatnonzero(_reach(linked | linked.T, reach))


def _reach(linked: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The nodes reached from the boolean mask ``reach`` along the edges
    row -> column of the boolean adjacency matrix ``linked``, as a mask."""
    while not np.array_equal(grown := reach | linked[reach].any(axis=0), reach):
        reach = grown
    return reach


def solve_steady_state(lio: np.ndarray) -> np.ndarray:
    """Trace-one steady state of the superoperator, as a density matrix.

    The population block (``population_block``) is solved in real
    coordinates with one redundant population row replaced by the trace
    constraint, and scattered into an otherwise zero, exactly Hermitian rho.
    The residual ||L rho|| (relative to ||L|| ||rho||, on the block) must come
    out below ``_RESIDUAL_TOL``; if not, the block's null space is sized via
    SVD to distinguish a degenerate steady state from plain
    ill-conditioning. A singular remainder off the block leaves the
    populations unique and fails nothing. A non-finite superoperator or
    solution raises with no null-space size, as does a block that does not
    map Hermitian rho to Hermitian rho (L[t(r), t(c)] = conj(L[r, c]), t the
    transpose, to ``_RESIDUAL_TOL`` of its largest entry): it is never
    symmetrized.
    """
    n = _side(lio)
    _check_finite(lio)
    block = population_block(lio)
    real = _real_coordinates(block, n)
    lio = lio[np.ix_(block, block)]
    t, _, _, kind, _ = real
    if np.abs(lio[np.ix_(t, t)] - lio.conj()).max() > _RESIDUAL_TOL * np.abs(lio).max():
        raise SteadyStateError(
            "steady-state superoperator does not map Hermitian rho to Hermitian rho")
    x = _factor(lio, np.zeros(block.size), real).x0
    u = np.flatnonzero(kind > 0)
    rho = np.zeros(n * n, dtype=complex)
    rho[block] = x
    rho[block[u]] += 1j * x[t[u]]
    rho[block[t[u]]] = rho[block[u]].conj()
    return rho.reshape(n, n)


def _population_record(scheme, h, rates, detuned) -> tuple:
    """The ``_factor`` of the population block of the superoperator of h, with
    the probe's slope if ``detuned``, and the positions of its populations.

    The block's nonzero pattern, and so the block, depends only on the
    scheme and on where h is nonzero: commutator entries are +-i h_ij one
    index at a time, decay always feeds ground pairs from excited pairs
    (gamma > 0), and transit links populations only. So the block is found
    once per (scheme, pattern of h), on one whole assembly, and from then on
    only the block is assembled.
    """
    _check_finite(h)
    tables = _block_tables(scheme, h, rates)
    lio = _assemble(tables, h, rates)
    _check_finite(lio)
    slope = tables.slope if detuned else np.zeros(tables.slope.size)
    return _factor(lio, slope, tables.real), tables.populations


def _block_tables(scheme: LevelScheme, h: np.ndarray, rates: RelaxationRates) -> _Scatter:
    """The ``_Scatter`` of the population block of the superoperator of h."""
    key = (scheme.scheme_id, (h != 0).tobytes())
    tables = _SCATTERS.get(key)
    if tables is None:
        block = population_block(build_liouvillian(scheme, h, rates))
        tables = _SCATTERS[key] = _scatter_tables(scheme, block)._replace(
            real=_real_coordinates(block, len(scheme.sublevels)))
    return tables


# Offsets per batch in ``_evaluate``: each temporary then holds 128
# solution columns of the population block.
_OFFSET_BLOCK = 128


def _side(lio: np.ndarray) -> int:
    n2 = lio.shape[0]
    n = math.isqrt(n2)
    if n * n != n2 or lio.shape != (n2, n2):
        raise ValueError("superoperator must be square with square side")
    return n


# The steady states of the block ``lio`` plus any offset times ``slope`` on
# its diagonal in pole-residue form (x0, Y V, lam and b of ``_factor``), and
# what ``_check_residual`` needs.
_Record = namedtuple(
    "_Record", "lio slope form moving partner d weight norm2 cross slope2 x0 yv lam b")


def _factor(lio, slope, real) -> _Record:
    """The ``_Record`` of the real coordinates x of the steady states of
    ``lio + offset * diag(slope)``, with x0 checked. ``lio`` is a finite
    population block that maps Hermitian rho to Hermitian rho, ``slope`` is
    zero on its populations and ``real`` is its ``_real_coordinates``. Row
    0 is a population (flat index 0), which the trace row replaces in the
    factorized system.

    One factorization serves every offset. An offset adds offset * S to R,
    with S[k, t(k)] = d_k = -Im slope[k] (t the transpose) on the rows J it
    moves: the pair rotation of the module docstring. With A0 the system of
    R and P = t(J), A0 is solved for e0, giving x0 (on its own, so x0 is
    bitwise the same for any slope), and for e_J, giving Y. By the Woodbury
    identity x = x0 - Y c, where (I + offset K) c = offset (d x0[P]) with the
    real K = diag(d) Y[P] = V diag(lam) V^-1, diagonalized once. So
    V^-1 c = offset / (1 + offset lam) * b with b = V^-1 (d x0[P]), and
    x = x0 - Re((Y V) (V^-1 c)), keeping of each conjugate pair of eigenpairs
    the one with Im lam > 0, weighted by 2. Every factorization and matrix
    product is real. A slope that moves no row leaves J empty and no poles:
    x0 is then the steady state at every offset.
    """
    t, _, _, kind, weight = real
    form = _real_form(lio, real)
    moving = np.flatnonzero(slope.imag)
    partner, d = t[moving], -slope.imag[moving]
    system = form.copy()
    system[0] = kind == 0
    unit = (np.arange(t.size)[:, None] == np.concatenate(([0], moving))).astype(float)
    try:
        x0 = np.linalg.solve(system, unit[:, 0])
    except np.linalg.LinAlgError as exc:
        raise _failure(
            lio, "steady-state system is singular (null-space dimension {}); "
            "no unique stationary density matrix") from exc
    _check_finite(x0)
    yv, lam, b, cross, slope2 = (unit[:, 1:],) * 2, d, d, 0.0, 0.0  # empty: no poles
    if moving.size:
        y = np.linalg.solve(system, unit[:, 1:])  # x0 was solved: not singular
        _check_finite(y)
        try:
            lam, v = np.linalg.eig(d[:, None] * y[partner])
            # numpy stores each conjugate pair of eigenvectors a +- ib side
            # by side, Im lam > 0 first. In the real basis of the columns
            # v (real lam), a and -b, d x0[P] has coordinates w; V^-1 d x0[P]
            # is then w on a real lam and (w_j + i w_j+1) / 2 on a pair.
            w = np.linalg.solve(np.where(lam.imag < 0, v.imag, v.real), d * x0[partner])
        except np.linalg.LinAlgError as exc:
            raise SteadyStateError(
                "steady-state update has no eigenvector basis") from exc
        keep = lam.imag >= 0
        b = (w + 1j * np.where(lam.imag > 0, np.roll(w, -1), 0.0))[keep]
        lam, v = lam[keep], v[:, keep]
        yv = y @ v.real, y @ v.imag
        # ||L + offset diag(slope)||_F^2
        #   = ||L||_F^2 + 2 offset Re(diag(L)^H slope) + offset^2 ||slope||^2
        cross = 2.0 * np.vdot(np.diagonal(lio), slope).real
        slope2 = np.vdot(slope, slope).real
    record = _Record(lio, slope, form, moving, partner, d, weight,
                     np.vdot(lio, lio).real, cross, slope2, x0, yv, lam, b)
    _check_residual(record, 0.0, x0[:, None])
    return record


def _evaluate(record, offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entries ``rows`` (positions in the block) of the checked steady state
    of ``record`` (``_factor``) at each of ``offsets``, one row per offset."""
    out = np.empty((offsets.size, rows.size))
    for start in range(0, offsets.size, _OFFSET_BLOCK):
        delta = offsets[start:start + _OFFSET_BLOCK]
        # V^-1 c for every offset
        u = delta / (1.0 + delta * record.lam[:, None]) * record.b[:, None]
        x = record.x0[:, None] - (record.yv[0] @ u.real - record.yv[1] @ u.imag)
        _check_residual(record, delta, x)
        out[start:start + delta.size] = x[rows].T
    return out


def _check_residual(record, delta, x: np.ndarray) -> None:
    """Raise unless each column of ``x``, the solution at the offset of the
    same entry of ``delta`` (or at the one offset ``delta``), passes the
    residual test on its own superoperator (a poor V would show here)."""
    resid = record.form @ x
    if record.moving.size:  # the pair rotation of each offset
        resid[record.moving] += record.d[:, None] * delta * x[record.partner]
    norm2 = record.norm2 + delta * (record.cross + delta * record.slope2)
    residual = np.sqrt(record.weight @ resid**2 / (norm2 * (record.weight @ x**2)))
    if not residual.max() <= _RESIDUAL_TOL:
        k = np.argmin(residual <= _RESIDUAL_TOL)
        shifted = record.lio + np.diag(np.broadcast_to(delta, residual.shape)[k]
                                       * record.slope)
        raise _failure(shifted, f"steady-state residual {residual[k]:.2e} exceeds "
                       f"{_RESIDUAL_TOL:.0e} (null-space dimension {{}})", x[:, k])


def _real_form(lio: np.ndarray, real: tuple) -> np.ndarray:
    """The real system R of the population block ``lio`` (module docstring)."""
    _, first, second, kind, _ = real
    parts = _parts(lio).reshape(-1)
    form = parts.take(second).reshape(lio.shape)
    form *= kind
    form += parts.take(first).reshape(lio.shape)
    return form


def _failure(lio: np.ndarray, template: str, *solutions) -> SteadyStateError:
    """The error for a failed solve of ``lio``: ``template`` filled in with the
    null-space dimension from an SVD, after ``_check_finite``."""
    _check_finite(lio, *solutions)
    sv = np.linalg.svd(lio, compute_uv=False)
    nullity = int(np.sum(sv < np.linalg.norm(lio) * 1e-12))
    return SteadyStateError(template.format(nullity))


def _check_finite(*arrays) -> None:
    """Raise unless every array is finite: a non-finite superoperator or
    solution leaves no null space for the SVD to size (it fails on NaN)."""
    if not all(np.isfinite(_parts(a) if np.iscomplexobj(a) else a).all() for a in arrays):
        raise SteadyStateError("steady-state superoperator or solution is not finite")


def _parts(a) -> np.ndarray:
    """Real and imaginary parts of ``a`` side by side, as one float array: a
    view, on which numpy compares about five times faster than on complex."""
    return np.ascontiguousarray(a, dtype=complex).view(float)


def pathway_denominator(
    paths: Sequence[ProbePathway],
    probe_detuning,
    coupling_detuning: float,
    rates: RelaxationRates,
    b_field: float = 0.0,
) -> np.ndarray:
    """Dressed line denominators of probe pathways for an atom at rest,

        gamma_ca - i Delta1 + (|Omega_c|^2/4) / (gamma_ba - i Delta2),

    with Delta1 the one-photon and Delta2 the two-photon detuning, the
    partner's light shift and the Zeeman offsets of ``b_field`` (tesla)
    folded in. A pathway with no coupling partner drops the EIT term.
    The result has one row per pathway in ``paths``, each of the shape of
    ``probe_detuning`` (a number or an array).
    """
    dets = np.asarray(probe_detuning, dtype=float)
    column = (-1,) + (1,) * dets.ndim  # one entry per pathway
    z_g = np.reshape([zeeman_shift(p.ground, b_field) for p in paths], column)
    z_e = np.reshape([zeeman_shift(p.excited, b_field) for p in paths], column)
    denom = rates.gamma_ca - 1j * (dets - (z_e - z_g))
    dressed = [i for i, p in enumerate(paths)
               if p.partner is not None and p.coupling_rabi != 0.0]
    lambdas = [paths[i] for i in dressed]
    z_b = np.reshape([zeeman_shift(p.partner, b_field) for p in lambdas], column)
    stark = np.reshape([p.stark_shift for p in lambdas], column)
    eit = np.reshape([abs(p.coupling_rabi) ** 2 / 4.0 for p in lambdas], column)
    two_photon = dets - coupling_detuning + stark + z_g[dressed] - z_b
    denom[dressed] += eit / (rates.gamma_ba - 1j * two_photon)
    return denom


def coupled_element_count(
    lio: np.ndarray,
    scheme: LevelScheme,
    probe: FieldDrive,
    coupling: FieldDrive,
) -> int:
    """Number of density-matrix elements the probe coherences depend on.

    Directed reachability over the nonzero entries of the whole superoperator
    ``lio`` of ``build_liouvillian``, starting from the driven
    optical-coherence elements; an element and its conjugate are counted
    separately (both have equations of their own). Every element counted lies
    in the ``population_block`` (75 of its 85 at the default point).
    """
    n = len(scheme.sublevels)
    idx = scheme.index
    seeds = np.zeros(n * n, dtype=bool)
    for component in probe.components():
        for p in probe_pathways(scheme, probe, coupling, component):
            if p.probe_rabi != 0.0:
                seeds[idx[p.excited] * n + idx[p.ground]] = True
    size = np.abs(lio)
    linked = size > 1e-12 * size.max()
    # each element brings in its transpose: an edge x -> flip(x)
    flip = np.arange(n * n).reshape(n, n).T.reshape(-1)
    linked[np.arange(n * n), flip] = True
    return int(np.count_nonzero(_reach(linked, seeds)))
