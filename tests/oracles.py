"""Reference forms that the tests compare the package against.

None of these runs in a CLI scenario: the sweeps evaluate whole grids
through ``spectra.susceptibility_arrays``, and the velocity average has a
closed form. They stay here as independent or single-point oracles.
"""

import math

import numpy as np

from eitrot.atom import NO_STARK, SIGMA_MINUS, SIGMA_PLUS, probe_pathways
from eitrot.dynamics import pathway_denominator
from eitrot.spectra import SusceptibilityPair, susceptibility_arrays


def maxwellian_weight(u, v_width, n0=1.0):
    """Velocity-class density N0/(V sqrt(pi)) exp(-u^2/V^2)."""
    if v_width <= 0:
        raise ValueError("v_width must be positive")
    u = np.asarray(u, dtype=float)
    return n0 / (v_width * math.sqrt(math.pi)) * np.exp(-((u / v_width) ** 2))


def analytic_coherences(populations, scheme, probe, coupling, rates, stark=NO_STARK):
    """Weak-probe closed forms for the optical coherences, keyed (upper, lower).

    Each driven route gives rho_eg = (i Omega_p/2) rho_gg / D, with D the
    route's ``pathway_denominator``.
    """
    out = {}
    for component in probe.components():
        for p in probe_pathways(scheme, probe, coupling, component, stark):
            denom = pathway_denominator(p, probe.detuning, coupling.detuning, rates)
            rho_gg = populations.get(p.ground, 0.0)
            value = 0.5j * p.probe_rabi * rho_gg / denom
            out[(scheme.label(p.excited), scheme.label(p.ground))] = value
    return out


def susceptibility_pair(scheme, probe, coupling, rates, populations, medium,
                        stark=NO_STARK):
    """Total chi-, chi+ at the probe detuning carried by ``probe``.

    ``populations`` maps ground sublevels to steady-state occupations; they
    multiply the pathway partials and are treated as velocity-independent.
    """
    chi_minus, chi_plus = susceptibility_arrays(
        probe_pathways(scheme, probe, coupling, SIGMA_MINUS, stark),
        probe_pathways(scheme, probe, coupling, SIGMA_PLUS, stark),
        probe.detuning, coupling, rates, populations, medium,
    )
    return SusceptibilityPair.from_chis(chi_minus[0], chi_plus[0], medium)
