"""Vapor properties, Doppler averages, susceptibilities, rotation angles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from eitrot.atom import (
    COUPLING,
    EPSILON_0,
    HBAR,
    LINEAR,
    PROBE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    FieldDrive,
    build_level_scheme,
    probe_pathways,
    stark_shifts,
)
from eitrot.dynamics import RelaxationRates
from eitrot import spectra
from eitrot.spectra import (
    MediumParams,
    SusceptibilityPair,
    doppler_average,
    rb_vapor_density,
    rotation_angle,
    susceptibility_arrays,
    thermal_v_width,
)
from oracles import faddeeva_coefficients, maxwellian_weight, susceptibility_pair

GAMMA_CA = TWO_PI * 3.5e6
GAMMA_BA = TWO_PI * 1.1e6

SCHEME = build_level_scheme("sigma_f2")
WC80 = FieldDrive(COUPLING, SIGMA_MINUS, TWO_PI * 80e6)


def probe_at(det, rabi=TWO_PI * 10e6):
    return FieldDrive(PROBE, LINEAR, rabi, detuning=det)


def doppler_factor(path, probe, coupling, rates, medium):
    """Velocity average of one pathway's denominator, read back from chi."""
    [(chi_minus, _)] = susceptibility_arrays(
        [((path,), (), {path.ground: 1.0}, medium)], probe.detuning,
        coupling.detuning, rates)
    prefactor = 1j * medium.density / (HBAR * EPSILON_0)
    return complex(chi_minus[0]) / (prefactor * path.probe_dipole ** 2)


def bare_path(probe, coupling=WC80):
    # a3 -> c5 has no coupling partner: plain two-level response
    return next(p for p in probe_pathways(SCHEME, probe, coupling, SIGMA_PLUS)
                if SCHEME.label(p.excited) == "c5")


class TestVapor:
    def test_anchor_density(self):
        assert rb_vapor_density(328.15) == pytest.approx(1.62e17, rel=1e-12)

    def test_ten_kelvin_step(self):
        # independent evaluation of the saturated-vapor curve, liquid branch
        def torr(t):
            return 10 ** (15.88253 - 4529.635 / t + 0.00058663 * t
                          - 2.99138 * math.log10(t))

        expected = 1.62e17 * (torr(338.15) / 338.15) / (torr(328.15) / 328.15)
        assert rb_vapor_density(338.15) == pytest.approx(expected, rel=1e-12)
        assert rb_vapor_density(338.15) / rb_vapor_density(328.15) == pytest.approx(
            2.302, abs=0.002)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            rb_vapor_density(0.0)

    def test_thermal_width(self):
        v = thermal_v_width(328.15)
        assert v == pytest.approx(
            math.sqrt(2 * 1.380649e-23 * 328.15 / 1.443e-25), rel=1e-12)
        # V/sqrt(2) is the rms along the beam, a few hundred m/s warm
        assert 200.0 < v < 300.0

    def test_maxwellian_weight(self):
        v = 240.0
        u = np.linspace(-8 * v, 8 * v, 400001)
        total = np.trapezoid(maxwellian_weight(u, v, n0=3.0e17), u)
        assert total == pytest.approx(3.0e17, rel=1e-9)
        peak = maxwellian_weight(0.0, v)
        assert maxwellian_weight(v, v) == pytest.approx(peak / math.e, rel=1e-12)

    def test_medium_params_reject_nan(self):
        for name in ("density", "temperature", "v_width", "cell_length"):
            fields = dict(density=1e17, temperature=328.15, v_width=240.0)
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                MediumParams(**{**fields, name: math.nan})

    def test_medium_params_validation(self):
        with pytest.raises(ValueError):
            MediumParams(density=-1.0, temperature=328.15, v_width=240.0)
        m = MediumParams.from_temperature(328.15)
        assert m.density == pytest.approx(1.62e17, rel=1e-12)
        assert m.wavevector == pytest.approx(TWO_PI / 794.979e-9, rel=1e-12)


class TestDopplerFactor:
    def test_cold_limit_is_stationary_integrand(self):
        det = TWO_PI * 5e6
        probe = probe_at(det)
        medium = MediumParams(density=1.62e17, temperature=328.15, v_width=1e-3)
        rates = RelaxationRates()
        got = doppler_factor(bare_path(probe), probe, WC80, rates, medium)
        assert got == pytest.approx(1.0 / (GAMMA_CA - 1j * det), rel=1e-6)

    def test_coupling_off_is_pure_voigt(self):
        det = TWO_PI * 2e6
        probe = probe_at(det)
        off = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        medium = MediumParams.from_temperature(328.15)
        rates = RelaxationRates()
        k = medium.wavevector
        v = medium.v_width
        path = next(p for p in probe_pathways(SCHEME, probe, off, SIGMA_MINUS)
                    if SCHEME.label(p.excited) == "c1")
        got = doppler_factor(path, probe, off, rates, medium)
        u = np.linspace(-6 * v, 6 * v, 2_000_001)
        oracle = np.trapezoid(
            maxwellian_weight(u, v) / (GAMMA_CA - 1j * (det + k * u)), u)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_eit_term_suppresses_on_resonance(self):
        probe = probe_at(0.0)
        medium = MediumParams.from_temperature(328.15)
        rates = RelaxationRates()
        path = next(p for p in probe_pathways(SCHEME, probe, WC80, SIGMA_MINUS)
                    if SCHEME.label(p.excited) == "c1")
        with_eit = doppler_factor(path, probe, WC80, rates, medium)
        without = doppler_factor(
            bare_path(probe), probe, WC80, rates, medium)
        assert abs(with_eit) < 0.2 * abs(without)


class TestDopplerLimits:
    KV = TWO_PI / 795e-9 * 240.0  # k V of a warm cell, rad/s

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(1e5, 1e8), delta=st.floats(-1e8, 1e8),
           ratio=st.floats(1e-9, 1e-4))
    def test_cold_limit_is_the_lorentzian(self, gamma, delta, ratio):
        # kV -> 0: the average of 1/(A - i k u) is 1/A
        a = gamma - 1j * delta
        got = doppler_average(a, ratio * abs(a))
        assert got == pytest.approx(1.0 / a, rel=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-2.0, 2.0), y=st.floats(1e-12, 1e-7))
    def test_doppler_limit_real_part_is_the_gaussian(self, x, y):
        # gamma_ca / kV -> 0 at Delta = x kV: Re F -> sqrt(pi)/(kV) exp(-x^2)
        got = doppler_average(self.KV * (y - 1j * x), self.KV)
        want = math.sqrt(math.pi) / self.KV * math.exp(-x * x)
        assert got.real == pytest.approx(want, rel=1e-5)


class TestFaddeevaKernel:
    # scipy's wofz is the oracle here only: the runtime evaluates w by
    # Weideman's rational approximation. doppler_average(-i z, 1) is
    # sqrt(pi) w(z). Floating-point errors raise as in a CLI run (underflow
    # is not one of them).
    STRICT = dict(over="raise", divide="raise", invalid="raise")

    def test_coefficient_literals_are_the_fft_values(self):
        # the literals replace an FFT at import; they must match it bit for bit
        want = faddeeva_coefficients(spectra._FADDEEVA_N, spectra._FADDEEVA_L)
        assert np.array_equal(want, spectra._FADDEEVA_COEFFS)

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-1e3, 1e3), log_y=st.floats(-6.0, 3.0))
    def test_matches_wofz_on_the_upper_half_plane(self, x, log_y):
        z = complex(x, 10.0 ** log_y)
        want = math.sqrt(math.pi) * wofz(z)
        assert abs(doppler_average(-1j * z, 1.0) - want) <= 1e-13 * abs(want)

    def test_large_arguments_do_not_overflow(self):
        # where lz = L - i z has |lz|^2 beyond the float range; w ~ i/(sqrt(pi) z)
        z = np.array([1e160 + 1e160j, 1e200j, 3e250 + 1e-3j, -1e305 + 1.0j,
                      1e154 + 1e154j])
        with np.errstate(**self.STRICT):
            got = doppler_average(-1j * z, 1.0)
        want = math.sqrt(math.pi) * wofz(z)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_undamped_mirror_scheme_is_finite_and_bit_identical(self):
        # gamma_ba = 0 puts infinite denominators at two-photon resonance,
        # which must take the transparent branch without a floating-point
        # error; mirror-image pathways must still give chi- == chi+ bit for bit
        scheme = build_level_scheme("pi_f2")
        coupling = FieldDrive(COUPLING, "pi", TWO_PI * 80e6)
        probe = probe_at(0.0)
        paths = [probe_pathways(scheme, probe, coupling, c)
                 for c in (SIGMA_MINUS, SIGMA_PLUS)]
        pops = {s: 1.0 / 8.0 for s in scheme.ground()}
        medium = MediumParams.from_temperature(328.15)
        dets = TWO_PI * np.linspace(-300e6, 300e6, 601)
        chis = {}
        for gamma_ba in (0.0, 1e-30):
            with np.errstate(**self.STRICT):
                chis[gamma_ba] = susceptibility_arrays(
                    [(*paths, pops, medium)], dets, coupling.detuning,
                    RelaxationRates(gamma_ba=gamma_ba))[0]
        chi_minus, chi_plus = chis[0.0]
        assert np.isfinite(chi_minus).all()
        assert np.array_equal(chi_minus, chi_plus)
        np.testing.assert_allclose(chi_minus, chis[1e-30][0], rtol=1e-12, atol=0)


class TestAgainstTrapezoid:
    def test_twenty_random_parameter_sets(self):
        # Maxwellian envelope against an EIT-style denominator whose width can
        # sit three decades below the envelope width
        rng = np.random.default_rng(20260814)
        k = 2 * math.pi / 795e-9
        for trial in range(20):
            v = rng.uniform(150.0, 350.0)
            gamma_ca = rng.uniform(1e6, 5e7)
            gamma_ba = rng.uniform(1e5, 1e7)
            delta1 = rng.uniform(-3e8, 3e8)
            delta2 = rng.uniform(-3e7, 3e7)
            omega_c2 = rng.uniform(0.0, (2 * math.pi * 1e8) ** 2)
            a = gamma_ca - 1j * delta1 + (omega_c2 / 4) / (gamma_ba - 1j * delta2)
            u = np.linspace(-6 * v, 6 * v, 1_200_001)
            oracle = np.trapezoid(maxwellian_weight(u, v) / (a - 1j * k * u), u)
            got = doppler_average(a, k * v)
            assert abs(got - oracle) <= 1e-4 * abs(oracle), trial


class TestSusceptibility:
    def setup_method(self):
        self.rates = RelaxationRates()
        self.pops = {SCHEME.by_label(l): v for l, v in
                     (("a1", 0.224), ("a2", 0.230), ("a3", 0.058))}
        self.medium = MediumParams(density=1.8e17, temperature=328.15,
                                   v_width=thermal_v_width(328.15))

    def test_scales_linearly_with_density(self):
        probe = probe_at(TWO_PI * 3e6)
        stark = stark_shifts(WC80, SCHEME)
        pair1 = susceptibility_pair(SCHEME, probe, WC80, self.rates,
                                    self.pops, self.medium, stark=stark)
        double = MediumParams(density=2 * self.medium.density, temperature=328.15,
                              v_width=self.medium.v_width)
        pair2 = susceptibility_pair(SCHEME, probe, WC80, self.rates,
                                    self.pops, double, stark=stark)
        assert pair2.chi_minus == pytest.approx(2 * pair1.chi_minus, rel=1e-9)
        assert pair2.chi_plus == pytest.approx(2 * pair1.chi_plus, rel=1e-9)

    def test_absorptive_part_positive(self):
        pair = susceptibility_pair(SCHEME, probe_at(TWO_PI * 3e6), WC80,
                                   self.rates, self.pops, self.medium,
                                   stark=stark_shifts(WC80, SCHEME))
        assert pair.chi_minus.imag > 0
        assert pair.chi_plus.imag > 0
        assert pair.alpha_minus > 0
        assert pair.alpha_plus > 0

    def test_grid_matches_single_points(self):
        # one call over a grid, with populations that vary along it, agrees
        # with the single-detuning entry point at every point
        stark = stark_shifts(WC80, SCHEME)
        dets = TWO_PI * np.array([-250e6, -3e6, 0.0, 2e6, 30e6])
        probe = probe_at(0.0)
        paths = [probe_pathways(SCHEME, probe, WC80, c, stark)
                 for c in (SIGMA_MINUS, SIGMA_PLUS)]
        scale = np.linspace(0.5, 1.5, len(dets))
        pops = {s: v * scale for s, v in self.pops.items()}
        [(chi_m, chi_p)] = susceptibility_arrays(
            [(*paths, pops, self.medium)], dets, WC80.detuning, self.rates)
        for i, det in enumerate(dets):
            pair = susceptibility_pair(
                SCHEME, probe_at(det), WC80, self.rates,
                {s: v[i] for s, v in pops.items()}, self.medium, stark=stark)
            assert chi_m[i] == pytest.approx(pair.chi_minus, rel=1e-12)
            assert chi_p[i] == pytest.approx(pair.chi_plus, rel=1e-12)

    def test_undamped_two_photon_resonance_is_transparent_limit(self):
        # gamma_ba = 0 at exact two-photon resonance: each lambda pathway's
        # denominator is infinite, and chi is the limit of tiny gamma_ba
        probe = probe_at(0.0)
        pair = susceptibility_pair(SCHEME, probe, WC80, RelaxationRates(gamma_ba=0.0),
                                   self.pops, self.medium)
        near = susceptibility_pair(SCHEME, probe, WC80, RelaxationRates(gamma_ba=1e-30),
                                   self.pops, self.medium)
        assert pair.chi_minus == pytest.approx(near.chi_minus, rel=1e-12)
        assert pair.chi_plus == pytest.approx(near.chi_plus, rel=1e-12)

    def test_mirror_scheme_components_cancel(self):
        scheme = build_level_scheme("pi_f2")
        coupling = FieldDrive(COUPLING, "pi", TWO_PI * 80e6)
        pops = {s: 1.0 / 8.0 for s in scheme.ground()}
        pair = susceptibility_pair(scheme, probe_at(TWO_PI * 2e6), coupling,
                                   self.rates, pops, self.medium)
        assert pair.chi_plus == pytest.approx(pair.chi_minus, rel=0, abs=1e-22)


class TestRotationAngle:
    def test_small_chi_reference_value(self):
        medium = MediumParams(density=1e17, temperature=328.15, v_width=240.0,
                              cell_length=0.05, wavelength=794.979e-9)
        pair = SusceptibilityPair.from_chis(0.0j, 1e-6 + 0.0j, medium)
        phi = rotation_angle(pair, medium)
        assert phi.approx == pytest.approx(0.0987955, rel=1e-5)
        assert phi.exact == pytest.approx(phi.approx, rel=1e-5)

    def test_exact_tracks_approx_for_small_chi(self):
        medium = MediumParams.from_temperature(328.15)
        rng = np.random.default_rng(3)
        for _ in range(25):
            chi_m = complex(*rng.uniform(-1e-3, 1e-3, 2))
            chi_p = complex(*rng.uniform(-1e-3, 1e-3, 2))
            pair = SusceptibilityPair.from_chis(chi_m, chi_p, medium)
            phi = rotation_angle(pair, medium)
            if abs(phi.approx) > 1e-6:
                assert phi.exact == pytest.approx(phi.approx, rel=0.01)

    def test_index_from_chi(self):
        medium = MediumParams.from_temperature(328.15)
        pair = SusceptibilityPair.from_chis(4e-4 + 1e-5j, -2e-4 + 3e-5j, medium)
        assert pair.n_minus == pytest.approx(np.sqrt(1 + 4e-4 + 1e-5j).real, rel=1e-12)
        assert pair.n_plus == pytest.approx(np.sqrt(1 - 2e-4 + 3e-5j).real, rel=1e-12)
        k = medium.wavevector
        assert pair.alpha_minus == pytest.approx(
            2 * k * np.sqrt(1 + 4e-4 + 1e-5j).imag, rel=1e-12)

    def test_index_below_minus_one_is_finite(self):
        # Re chi < -1 has no real sqrt(1 + Re chi); the complex index does
        medium = MediumParams.from_temperature(328.15)
        chi = -1.5 + 2e-3j
        pair = SusceptibilityPair.from_chis(chi, chi, medium)
        index = np.sqrt(1 + chi)
        assert math.isfinite(pair.n_minus) and math.isfinite(pair.alpha_minus)
        assert pair.n_minus == pytest.approx(index.real, rel=1e-12)
        assert pair.alpha_minus == pytest.approx(
            2 * medium.wavevector * index.imag, rel=1e-12)
