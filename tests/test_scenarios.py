"""Sweeps, peak extraction, scans, and the transmission census."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import find_peaks

from eitrot.atom import SCHEME_IDS, SIGMA_MINUS, SIGMA_PLUS, TWO_PI
from eitrot.detection import JonesVector, detector_intensities, propagate_cell
from eitrot import scenarios
from eitrot.dynamics import (
    RelaxationRates,
    build_hamiltonian,
    build_liouvillian,
    solve_steady_state,
)
from eitrot.scenarios import (
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
    _ground_populations,
)
from eitrot.spectra import SusceptibilityPair

FIG_CFG = ScenarioConfig(
    scheme_id="sigma_f2",
    probe_rabi=TWO_PI * 10e6,
    coupling_rabi=TWO_PI * 80e6,
    density=1.8e17,
    temperature=328.15,
    detuning_min=-TWO_PI * 40e6,
    detuning_max=TWO_PI * 40e6,
    points=81,
)

EIT_CFG = ScenarioConfig(
    scheme_id="sigma_f2",
    probe_rabi=TWO_PI * 1e6,
    coupling_rabi=TWO_PI * 30e6,
    density=1e17,
    temperature=328.15,
    b_field=10e-4,
    detuning_min=-TWO_PI * 30e6,
    detuning_max=TWO_PI * 30e6,
    points=301,
)


def synthetic_sweep(phi, detunings, coupling_detuning_mhz=0.0):
    n = len(detunings)
    zeros = np.zeros(n)
    return SweepResult(
        detunings=np.asarray(detunings, dtype=float),
        chi_minus=zeros.astype(complex), chi_plus=zeros.astype(complex),
        n_minus=zeros + 1, n_plus=zeros + 1,
        alpha_minus=zeros, alpha_plus=zeros,
        phi_exact=np.asarray(phi, dtype=float),
        signals=(), metadata={"coupling_detuning_mhz": coupling_detuning_mhz},
    )


MHZ = TWO_PI * 1e6


def mhz(low, high):
    return st.floats(low, high).map(lambda x: x * MHZ)


@st.composite
def relaxation_rates(draw):
    gamma = draw(mhz(3.0, 10.0))
    return RelaxationRates(
        gamma=gamma,
        # spontaneous emission alone damps optical coherences at gamma/2;
        # slower optical damping is unphysical, and rho can then have
        # negative eigenvalues
        gamma_ca=gamma / 2 + draw(mhz(0.0, 8.0)),
        # undamped ground coherences make the steady state degenerate
        gamma_ba=draw(mhz(0.05, 3.0)),
        gamma_ground=draw(st.none() | mhz(0.05, 3.0)),
        gamma_transit=draw(mhz(0.05, 3.0)))


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


def choi_floor(lio):
    """Least eigenvalue of the generator's Choi matrix off the maximally
    entangled vector; >= 0 exactly when exp(L t) is completely positive."""
    n = math.isqrt(lio.shape[0])
    choi = lio.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    omega = np.eye(n).reshape(-1) / math.sqrt(n)
    proj = np.eye(n * n) - np.outer(omega, omega)
    part = proj @ choi @ proj
    return np.linalg.eigvalsh((part + part.conj().T) / 2).min()


def sweep_configs(scheme_id=st.sampled_from(SCHEME_IDS), b_gauss=st.floats(-30.0, 30.0),
                  rates=relaxation_rates()):
    """In-domain configurations over random drives, rates, fields and
    densities, on a short grid."""
    return st.builds(
        ScenarioConfig, scheme_id=scheme_id, probe_rabi=mhz(0.1, 40.0),
        coupling_rabi=mhz(0.0, 150.0), coupling_detuning=mhz(-20.0, 20.0),
        detuning_min=mhz(-60.0, -1.0), detuning_max=mhz(1.0, 60.0),
        points=st.just(41), density=st.floats(1e14, 1e19),
        b_field=b_gauss.map(lambda gauss: gauss * 1e-4), stark_enabled=st.booleans(),
        population_policy=st.sampled_from(["fixed", "per_point"]),
        rates=rates)


class TestConfigValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scheme_id="nope")
        with pytest.raises(ValueError):
            ScenarioConfig(points=1)
        with pytest.raises(ValueError):
            ScenarioConfig(detuning_min=1.0, detuning_max=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(population_policy="sometimes")
        with pytest.raises(ValueError):
            ScenarioConfig(probe_rabi=-1.0)

    def test_rejects_nan(self):
        # each message starts with the field, which the CLI maps to its key
        for name in ("probe_rabi", "coupling_rabi", "temperature", "density",
                     "cell_length", "detuning_max", "points"):
            with pytest.raises(ValueError, match=f"^{name} "):
                ScenarioConfig(**{name: math.nan})

    def test_medium_uses_vapor_curve_when_density_omitted(self):
        assert ScenarioConfig(temperature=328.15).medium().density == pytest.approx(
            1.62e17, rel=1e-12)
        assert ScenarioConfig(density=3e17).medium().density == 3e17


class TestPeakFinding:
    def test_dispersion_shape_extrema(self):
        x = np.linspace(-4.0, 4.0, 801)
        peaks = find_dispersion_peaks(synthetic_sweep(x * np.exp(-x * x), x))
        assert peaks.found
        assert peaks.left.detuning == pytest.approx(-1 / math.sqrt(2), abs=0.011)
        assert peaks.right.detuning == pytest.approx(1 / math.sqrt(2), abs=0.011)
        assert peaks.left.phi == pytest.approx(-math.exp(-0.5) / math.sqrt(2), abs=1e-4)
        assert peaks.right.phi == pytest.approx(math.exp(-0.5) / math.sqrt(2), abs=1e-4)

    def test_flat_spectrum_has_no_peaks(self):
        x = np.linspace(-1.0, 1.0, 41)
        assert not find_dispersion_peaks(synthetic_sweep(np.zeros(41), x)).found

    def test_one_signed_spectrum_has_no_peaks(self):
        x = np.linspace(-1.0, 1.0, 41)
        assert not find_dispersion_peaks(synthetic_sweep(np.exp(-x * x), x)).found

    def test_crossing_selection_honors_center(self):
        # two zero crossings; the one nearer the stated resonance wins
        x = np.linspace(-4.0, 4.0, 1601)
        phi = np.sin(x) * np.exp(-0.1 * x * x)
        center_mhz = 3.0 / (TWO_PI * 1e6)
        peaks = find_dispersion_peaks(synthetic_sweep(phi, x, center_mhz))
        assert peaks.found
        assert peaks.left.detuning < math.pi  # crossing at pi, not at 0


class TestSweep:
    def test_symmetric_scheme_never_rotates(self):
        cfg = replace(FIG_CFG, scheme_id="pi_f2", points=21)
        result = sweep_probe_detuning(cfg)
        assert np.max(np.abs(result.phi_exact)) < 1e-10
        assert not find_dispersion_peaks(result).found

    def test_rotating_scheme_dispersion_profile(self):
        result = sweep_probe_detuning(FIG_CFG)
        peaks = find_dispersion_peaks(result)
        assert peaks.found
        assert peaks.left.phi > 0 > peaks.right.phi
        assert abs(peaks.left.phi) != pytest.approx(abs(peaks.right.phi), rel=0.05)
        # detector trace and direct angle agree point by point
        s = result.signals
        rec = 0.5 * np.arctan2(-(s.d3 - s.d4), -(s.d1 - s.d2))
        assert rec == pytest.approx(result.phi_exact, abs=1e-9)

    def test_detector_arrays_match_scalar_chain(self):
        result = sweep_probe_detuning(FIG_CFG)
        medium = FIG_CFG.medium()
        for i in (0, 17, 40, 63, 80):
            pair = SusceptibilityPair.from_chis(
                complex(result.chi_minus[i]), complex(result.chi_plus[i]), medium)
            point = detector_intensities(
                propagate_cell(JonesVector.linear(), pair, medium), 1.0)
            for name in ("d1", "d2", "d3", "d4"):
                assert getattr(result.signals, name)[i] == pytest.approx(
                    getattr(point, name), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("b_field", [0.0, 10e-4])
    def test_shifted_diagonal_populations_match_direct_solve(self, b_field):
        cfg = replace(FIG_CFG, b_field=b_field, coupling_detuning=TWO_PI * 2e6)
        scheme = cfg.scheme()
        coupling = cfg.coupling_drive()
        stark = cfg.stark(scheme)
        dets = TWO_PI * np.array([-40e6, -7.5e6, 0.0, 2e6, 3.1e6, 25e6])
        pops = _ground_populations(cfg, scheme, coupling, stark,
                                   dets - cfg.coupling_detuning)
        for k, det in enumerate(dets):
            h = build_hamiltonian(scheme, cfg.probe_drive(det), coupling, stark,
                                  cfg.b_field)
            rho = solve_steady_state(build_liouvillian(scheme, h, cfg.rates))
            for i, s in enumerate(scheme.sublevels):
                if s in pops:
                    assert pops[s][k] == pytest.approx(rho[i, i].real, abs=1e-12)

    def test_population_metadata_and_policy(self):
        fixed = sweep_probe_detuning(replace(FIG_CFG, points=11))
        assert fixed.metadata["population_policy"] == "fixed"
        pops = fixed.metadata["populations"]
        assert set(pops) >= {"a1", "a2", "a3", "b1"}
        assert all(v >= 0 for v in pops.values())
        # the strong coupling parks a good fraction in the excited manifold,
        # so the eight ground occupations sum to less than one
        assert 0.6 < sum(pops.values()) < 1.0
        per_point = sweep_probe_detuning(
            replace(FIG_CFG, points=11, population_policy="per_point"))
        assert per_point.metadata["population_policy"] == "per_point"
        assert np.max(np.abs(per_point.phi_exact - fixed.phi_exact)) > 0.0

    def test_steady_populations_default_point(self):
        pops = steady_populations(replace(FIG_CFG, points=11))
        scheme = FIG_CFG.scheme()
        a = [pops[scheme.by_label(l)] for l in ("a1", "a2", "a3")]
        assert a[0] == pytest.approx(0.226, abs=0.015)
        assert a[1] == pytest.approx(0.233, abs=0.015)
        assert a[2] == pytest.approx(0.066, abs=0.015)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(cfg=sweep_configs(scheme_id=st.just("pi_f2"), b_gauss=st.just(0.0)))
    def test_mirror_scheme_rotation_vanishes(self, cfg):
        # without a longitudinal field (which would Faraday-rotate) the two
        # circular components see mirror-image media. The steady-state solve
        # keeps the m <-> -m symmetry of the populations only to rounding, so
        # the two indices may differ by their last bit (about 1% of draws).
        result = sweep_probe_detuning(cfg)
        np.testing.assert_array_max_ulp(result.n_minus, result.n_plus, maxulp=1)

    @settings(max_examples=50, deadline=None)
    @given(cfg=sweep_configs(), factor=st.floats(0.01, 100.0))
    def test_chi_is_linear_in_density(self, cfg, factor):
        one = sweep_probe_detuning(cfg)
        scaled = sweep_probe_detuning(replace(cfg, density=factor * cfg.density))
        for chi, got in ((one.chi_minus, scaled.chi_minus),
                         (one.chi_plus, scaled.chi_plus)):
            want = factor * chi
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @settings(max_examples=100, deadline=None)
    @given(cfg=sweep_configs(rates=lindblad_rates()), probe_detuning=mhz(-60.0, 60.0))
    def test_steady_state_is_a_density_matrix(self, cfg, probe_detuning):
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(probe_detuning),
                              cfg.coupling_drive(), cfg.stark(scheme), cfg.b_field)
        lio = build_liouvillian(scheme, h, cfg.rates)
        assert choi_floor(lio) > -1e-12 * np.abs(lio).max()
        rho = solve_steady_state(lio)
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestScans:
    def test_power_scan_is_monotone_in_both_peaks(self):
        rows = sweep_coupling_power(
            replace(FIG_CFG, points=61), [6e-3, 10e-3, 15e-3])
        assert [r[0] for r in rows] == [6e-3, 10e-3, 15e-3]
        lefts = [r[2].left.phi for r in rows]
        rights = [abs(r[2].right.phi) for r in rows]
        assert lefts == sorted(lefts)
        assert rights == sorted(rights)
        assert rows[0][1] < rows[1][1] < rows[2][1]

    def test_power_scan_input_validation(self):
        with pytest.raises(ValueError):
            sweep_coupling_power(FIG_CFG, [10e-3, 6e-3])
        with pytest.raises(ValueError):
            sweep_coupling_power(FIG_CFG, [0.0, 6e-3])

    def test_temperature_scan_follows_vapor_curve(self):
        cfg = replace(FIG_CFG, points=41, density=1.8e17)
        rows = sweep_temperature(cfg, [328.15, 338.15])
        n_cold = rows[0][1].metadata["density_m3"]
        n_hot = rows[1][1].metadata["density_m3"]
        # explicit density is dropped; both points sit on the curve
        assert n_cold == pytest.approx(1.62e17, rel=1e-9)
        assert n_hot / n_cold == pytest.approx(2.302, abs=0.002)
        hot_max = np.max(np.abs(rows[1][1].phi_exact))
        cold_max = np.max(np.abs(rows[0][1].phi_exact))
        assert hot_max > cold_max


class TestTransmission:
    def test_peak_census_with_field(self):
        assert count_transmission_peaks(eit_transmission(EIT_CFG, SIGMA_MINUS)) == 3
        assert count_transmission_peaks(eit_transmission(EIT_CFG, SIGMA_PLUS)) == 2

    def test_peak_census_degenerate(self):
        cfg = replace(EIT_CFG, b_field=0.0)
        assert count_transmission_peaks(eit_transmission(cfg, SIGMA_MINUS)) == 1
        assert count_transmission_peaks(eit_transmission(cfg, SIGMA_PLUS)) == 1

    def test_census_stable_under_grid_doubling(self):
        cfg = replace(EIT_CFG, points=601)
        assert count_transmission_peaks(eit_transmission(cfg, SIGMA_MINUS)) == 3
        assert count_transmission_peaks(eit_transmission(cfg, SIGMA_PLUS)) == 2

    def test_transmission_is_physical(self):
        curve = eit_transmission(EIT_CFG, SIGMA_MINUS)
        assert np.all(curve.transmission > 0.0)
        assert np.all(curve.transmission <= 1.0)
        assert curve.component == SIGMA_MINUS

    def test_rejects_linear_component(self):
        with pytest.raises(ValueError):
            eit_transmission(EIT_CFG, "linear")

    # few distinct levels, so ties, plateaus and flat ends come up often
    @settings(max_examples=300, deadline=None)
    @given(
        t=arrays(np.float64, st.integers(1, 40),
                 elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])
                 | st.floats(0.0, 1.0)),
        fraction=st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
    )
    def test_peak_count_matches_scipy_find_peaks(self, t, fraction):
        curve = TransmissionCurve(np.arange(t.size, dtype=float), t, SIGMA_MINUS, {})
        span = t.max() - t.min()
        want = 0 if span == 0 else len(find_peaks(t, prominence=fraction * span)[0])
        with mock.patch.object(scenarios, "_PROMINENCE_FRACTION", fraction):
            assert count_transmission_peaks(curve) == want
