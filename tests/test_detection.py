"""Cell propagation, analysis-arm intensities, and angle recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eitrot.detection import (
    DetectorSignals,
    IndeterminateAngleError,
    JonesVector,
    detector_intensities,
    propagate_cell,
    recover_angle,
)
from eitrot.spectra import MediumParams, SusceptibilityPair

MEDIUM = MediumParams(density=1.62e17, temperature=328.15, v_width=240.0)
IDENTITY = SusceptibilityPair.from_chis(0.0j, 0.0j, MEDIUM)


def pair_for(phi, alpha_minus_d=0.0, alpha_plus_d=0.0):
    """Build cell response with a prescribed rotation and attenuations."""
    d = MEDIUM.cell_length
    dn = phi * MEDIUM.wavelength / (math.pi * d)
    return SusceptibilityPair(
        chi_minus=0.0j, chi_plus=0.0j,
        n_minus=1.0, n_plus=1.0 + dn,
        alpha_minus=alpha_minus_d / d, alpha_plus=alpha_plus_d / d,
    )


class TestPropagation:
    def test_empty_cell_only_phases(self):
        out = propagate_cell(JonesVector.linear(0.0), IDENTITY, MEDIUM)
        assert abs(out.ex) == pytest.approx(1.0, rel=1e-12)
        assert abs(out.ey) == pytest.approx(0.0, abs=1e-12)
        assert abs(out.ex) ** 2 + abs(out.ey) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_index_difference_rotates_plane(self):
        phi = math.radians(10.0)
        out = propagate_cell(JonesVector.linear(0.0), pair_for(phi), MEDIUM)
        assert abs(out.ex) ** 2 + abs(out.ey) ** 2 == pytest.approx(1.0, rel=1e-12)
        # the output remains linear, rotated by (pi d / lambda) dn
        measured = 0.5 * math.atan2(
            2 * (out.ex.conjugate() * out.ey).real,
            abs(out.ex) ** 2 - abs(out.ey) ** 2)
        assert measured == pytest.approx(phi, rel=1e-9)

    def test_pure_circular_attenuation(self):
        out = propagate_cell(JonesVector.linear(0.0),
                             pair_for(0.0, alpha_minus_d=2.0), MEDIUM)
        a = math.exp(-1.0)
        assert abs(out.ex) == pytest.approx((1 + a) / 2, rel=1e-12)
        assert abs(out.ey) == pytest.approx((1 - a) / 2, rel=1e-12)


class TestIntensities:
    def test_no_rotation_split(self):
        s = detector_intensities(
            propagate_cell(JonesVector.linear(0.0), IDENTITY, MEDIUM), i0=2.0)
        assert s.d1 == pytest.approx(0.0, abs=1e-15)
        assert s.d2 == pytest.approx(1.0, rel=1e-12)
        assert s.d3 == pytest.approx(0.5, rel=1e-12)
        assert s.d4 == pytest.approx(0.5, rel=1e-12)

    def test_forty_five_degrees_darkens_d3(self):
        s = detector_intensities(JonesVector.linear(math.pi / 4), i0=1.0)
        assert s.d3 == pytest.approx(0.0, abs=1e-15)
        assert s.d4 == pytest.approx(0.5, rel=1e-12)
        assert s.d1 == pytest.approx(s.d2, rel=1e-12)

    def test_closed_form_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi = rng.uniform(-0.7, 0.7)
            am_d, ap_d = rng.uniform(0.0, 3.0, 2)
            out = propagate_cell(JonesVector.linear(0.0),
                                 pair_for(phi, am_d, ap_d), MEDIUM)
            s = detector_intensities(out, i0=1.0)
            common = math.exp(-(am_d + ap_d) / 2)
            # the common optical phase k n d is ~4e5 rad, so double
            # precision leaves ~1e-11 of phase noise in the differences
            assert s.d1 - s.d2 == pytest.approx(
                -0.5 * common * math.cos(2 * phi), abs=1e-9)
            assert s.d3 - s.d4 == pytest.approx(
                -0.5 * common * math.sin(2 * phi), abs=1e-9)
            assert s.d1 + s.d2 == pytest.approx(s.d3 + s.d4, rel=1e-12)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            DetectorSignals(d1=-0.1, d2=0.0, d3=0.0, d4=0.0)


class TestRecovery:
    def test_arctangent_examples(self):
        zero = DetectorSignals(d1=0.0, d2=0.3, d3=0.1, d4=0.1)
        assert recover_angle(zero) == pytest.approx(0.0, abs=1e-15)
        tilted = DetectorSignals(d1=0.0, d2=0.3, d3=0.0, d4=0.3)
        assert recover_angle(tilted) == pytest.approx(math.radians(22.5), rel=1e-12)

    def test_round_trip_with_random_dichroism(self):
        rng = np.random.default_rng(5)
        for phi_deg in np.linspace(-44.0, 44.0, 23):
            phi = math.radians(phi_deg)
            am_d, ap_d = rng.uniform(0.0, 3.0, 2)
            out = propagate_cell(JonesVector.linear(0.0),
                                 pair_for(phi, am_d, ap_d), MEDIUM)
            got = recover_angle(detector_intensities(out, i0=1.0))
            assert abs(got - phi) < 1e-9

    def test_common_attenuation_cancels(self):
        phi = math.radians(17.0)
        bright = detector_intensities(
            propagate_cell(JonesVector.linear(0.0), pair_for(phi), MEDIUM), i0=1.0)
        dim = detector_intensities(
            propagate_cell(JonesVector.linear(0.0),
                           pair_for(phi, alpha_minus_d=2.5, alpha_plus_d=2.5),
                           MEDIUM), i0=1.0)
        assert recover_angle(dim) == pytest.approx(recover_angle(bright), abs=1e-12)

    def test_wraps_into_half_open_interval(self):
        out = propagate_cell(JonesVector.linear(math.radians(-91.0)),
                             IDENTITY, MEDIUM)
        got = recover_angle(detector_intensities(out, i0=1.0))
        assert got == pytest.approx(math.radians(89.0), rel=1e-9)

    def test_array_call_matches_scalar_calls(self):
        phis = np.radians(np.linspace(-89.0, 89.0, 37))
        pair = SusceptibilityPair(
            chi_minus=np.zeros(phis.size, complex), chi_plus=np.zeros(phis.size, complex),
            n_minus=np.ones(phis.size),
            n_plus=1.0 + phis * MEDIUM.wavelength / (math.pi * MEDIUM.cell_length),
            alpha_minus=np.linspace(0.0, 40.0, phis.size),
            alpha_plus=np.linspace(30.0, 0.0, phis.size),
        )
        signals = detector_intensities(
            propagate_cell(JonesVector.linear(0.0), pair, MEDIUM), i0=1.0)
        got = recover_angle(signals)
        assert got.shape == phis.shape
        for i, phi in enumerate(phis):
            point = DetectorSignals(d1=signals.d1[i], d2=signals.d2[i],
                                    d3=signals.d3[i], d4=signals.d4[i])
            assert got[i] == recover_angle(point)
            assert got[i] == pytest.approx(phi, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        phis_deg=arrays(np.float64, st.integers(1, 30), elements=st.floats(-89.0, 89.0)),
        dichroism=st.floats(0.0, 3.0),
        common=st.floats(0.0, 20.0),
    )
    def test_array_recovery_is_exact_and_blind_to_common_attenuation(
            self, phis_deg, dichroism, common):
        phis = np.radians(phis_deg)
        d = MEDIUM.cell_length
        # alpha_minus d runs over [0, dichroism], alpha_plus d the other way
        ramp = np.linspace(0.0, dichroism, phis.size)

        def recovered(extra_d):
            pair = SusceptibilityPair(
                chi_minus=np.zeros(phis.size, complex),
                chi_plus=np.zeros(phis.size, complex),
                n_minus=np.ones(phis.size),
                n_plus=1.0 + phis * MEDIUM.wavelength / (math.pi * d),
                alpha_minus=(ramp + extra_d) / d,
                alpha_plus=(ramp[::-1] + extra_d) / d,
            )
            return recover_angle(detector_intensities(
                propagate_cell(JonesVector.linear(0.0), pair, MEDIUM), i0=1.0))

        clear = recovered(0.0)
        np.testing.assert_allclose(clear, phis, rtol=0, atol=1e-9)
        np.testing.assert_allclose(recovered(common), clear, rtol=0, atol=1e-12)

    def test_one_indeterminate_entry_fails_the_array(self):
        signals = DetectorSignals(d1=np.array([0.0, 0.25]), d2=np.array([0.3, 0.25]),
                                  d3=np.array([0.1, 0.25]), d4=np.array([0.1, 0.25]))
        with pytest.raises(IndeterminateAngleError):
            recover_angle(signals)

    def test_balanced_signals_are_indeterminate(self):
        flat = DetectorSignals(d1=0.25, d2=0.25, d3=0.25, d4=0.25)
        with pytest.raises(IndeterminateAngleError):
            recover_angle(flat)
        with pytest.raises(IndeterminateAngleError):
            recover_angle(DetectorSignals(d1=0, d2=0, d3=0, d4=0))
