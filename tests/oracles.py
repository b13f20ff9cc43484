"""Reference forms that the tests compare the package against.

None of these runs in a CLI scenario: the sweeps evaluate whole grids
through ``spectra.susceptibility_arrays``, the velocity average has a
closed form whose series coefficients are written out in ``spectra``, and
the steady state is solved on the population block only.
They stay here as independent or single-point oracles, next to the rate
draws for which the steady state must be a density matrix.
"""

import math

import numpy as np
from hypothesis import strategies as st

from eitrot.atom import EXCITED, MHZ, NO_STARK, SIGMA_MINUS, SIGMA_PLUS, probe_pathways
from eitrot.dynamics import RelaxationRates, level_index, pathway_denominator
from eitrot.spectra import SusceptibilityPair, susceptibility_arrays


def maxwellian_weight(u, v_width, n0=1.0):
    """Velocity-class density N0/(V sqrt(pi)) exp(-u^2/V^2)."""
    if v_width <= 0:
        raise ValueError("v_width must be positive")
    u = np.asarray(u, dtype=float)
    return n0 / (v_width * math.sqrt(math.pi)) * np.exp(-((u / v_width) ** 2))


def analytic_coherences(populations, scheme, probe, coupling, rates, stark=NO_STARK,
                        b_field=0.0):
    """Weak-probe closed forms for the optical coherences, keyed (upper, lower).

    Each driven route gives rho_eg = (i Omega_p/2) rho_gg / D, with D the
    route's ``pathway_denominator`` in the field ``b_field`` (tesla).
    """
    out = {}
    for component in probe.components():
        paths = probe_pathways(scheme, probe, coupling, component, stark)
        denoms = pathway_denominator(paths, probe.detuning, coupling.detuning, rates,
                                     b_field)
        for p, denom in zip(paths, denoms):
            rho_gg = populations.get(p.ground, 0.0)
            value = 0.5j * p.probe_rabi * rho_gg / denom
            out[(scheme.label(p.excited), scheme.label(p.ground))] = value
    return out


def faddeeva_coefficients(n, scale):
    """Coefficients of Weideman's n-term series for the Faddeeva function,
    highest degree first: the Fourier coefficients of (L^2 + t^2) exp(-t^2)
    on t = L tan(theta / 2), L = ``scale``, by one FFT."""
    m = 2 * n
    t = scale * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.r_[0.0, np.exp(-t * t) * (scale * scale + t * t)]
    return (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[n:0:-1]


def susceptibility_pair(scheme, probe, coupling, rates, populations, medium,
                        stark=NO_STARK):
    """Total chi-, chi+ at the probe detuning carried by ``probe``.

    ``populations`` maps ground sublevels to steady-state occupations; they
    multiply the pathway partials and are treated as velocity-independent.
    """
    [(chi_minus, chi_plus)] = susceptibility_arrays(
        [(probe_pathways(scheme, probe, coupling, SIGMA_MINUS, stark),
          probe_pathways(scheme, probe, coupling, SIGMA_PLUS, stark),
          populations, medium)],
        probe.detuning, coupling.detuning, rates,
    )
    return SusceptibilityPair.from_chis(chi_minus[0], chi_plus[0], medium)


def loop_liouvillian(scheme, h, rates):
    """``build_liouvillian`` element by element, with the same floating-point
    operations on every element."""
    n = len(scheme.sublevels)
    idx = level_index(scheme)
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


def stack_walk_element_count(lio, scheme, probe, coupling):
    """``coupled_element_count`` as a depth-first walk over the superoperator
    rows, one element (row, column of rho) at a time."""
    n = len(scheme.sublevels)
    idx = level_index(scheme)
    tol = 1e-12 * np.abs(lio).max()
    seeds = []
    for component in probe.components():
        for p in probe_pathways(scheme, probe, coupling, component):
            if p.probe_rabi != 0.0:
                seeds.append((idx[p.excited], idx[p.ground]))
    seen = set()
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


def dense_steady_state(lio):
    """Trace-one null vector of the whole superoperator from one dense solve,
    with row 0 (a population) replaced by the trace row."""
    n = math.isqrt(lio.shape[0])
    system = lio.copy()
    system[0] = 0.0
    system[0, :: n + 1] = 1.0
    rhs = np.zeros(n * n, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs).reshape(n, n)


def mhz(low, high):
    return st.floats(low, high).map(lambda x: x * MHZ)


@st.composite
def lindblad_rates(draw):
    """Rates for which the relaxation of ``build_liouvillian`` is a Lindblad
    generator, so that its steady state must be a density matrix.

    Transit empties each ground sublevel at 7/8 of its rate (every scheme has
    8 ground sublevels). As a jump process that also damps ground coherences
    at this out-rate and optical ones at half of it, on top of the gamma/2
    of spontaneous emission. The rest are dephasings: kappa of each ground
    sublevel, lam of F=1 against F=2 and nu of the excited manifold. Named
    rates below these floors (say gamma_ba under 7/8 of the transit rate)
    are accepted by ``RelaxationRates`` but can give rho negative eigenvalues.
    """
    gamma = draw(mhz(3.0, 10.0))
    transit = draw(mhz(0.05, 3.0))
    out = transit * 7 / 8
    kappa = draw(mhz(0.0, 3.0))
    nu = draw(mhz(0.0, 8.0))
    separate = draw(st.booleans())
    lam = draw(mhz(0.0, 3.0)) if separate else 0.0
    return RelaxationRates(
        gamma=gamma, gamma_ca=(gamma + out + kappa + lam + nu) / 2,
        gamma_ba=out + kappa + 2 * lam,
        gamma_ground=out + kappa if separate else None,
        gamma_transit=transit)
