"""Level schemes, shifts, pathway census, and power calibration."""

import math

import pytest

from eitrot.atom import (
    COUPLING,
    LINEAR,
    NO_STARK,
    PI,
    PROBE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    FieldDrive,
    build_level_scheme,
    clebsch_gordan,
    coupling_polarization,
    lambda_subsystems,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
    zeeman_shift,
)

WC80 = FieldDrive(COUPLING, SIGMA_MINUS, TWO_PI * 80e6)
WP10 = FieldDrive(PROBE, LINEAR, TWO_PI * 10e6)


class TestSchemeStructure:
    def test_sublevel_counts(self):
        assert len(build_level_scheme("sigma_f2").sublevels) == 13
        assert len(build_level_scheme("pi_f2").sublevels) == 13
        assert len(build_level_scheme("sigma_f1").sublevels) == 11

    def test_labels_round_trip(self):
        scheme = build_level_scheme("sigma_f2")
        for s in scheme.sublevels:
            assert scheme.by_label(scheme.label(s)) == s
        assert scheme.by_label("b3").m == 0
        assert scheme.by_label("c1").m == -2

    @pytest.mark.parametrize("scheme_id", ["sigma_f2", "pi_f2", "sigma_f1"])
    def test_branching_sum_rule(self, scheme_id):
        # every excited sublevel decays with unit total strength
        scheme = build_level_scheme(scheme_id)
        for e in scheme.excited():
            total = sum(t.cg**2 for t in scheme.decay_channels(e))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_frozen_probe_cg_values(self):
        scheme = build_level_scheme("sigma_f2")
        trio = {
            ("a1", "c1"): -math.sqrt(2) / 2,
            ("a2", "c2"): -0.5,
            ("a3", "c3"): -math.sqrt(3) / 6,
            ("a1", "c3"): -math.sqrt(3) / 6,
            ("a2", "c4"): -0.5,
            ("a3", "c5"): -math.sqrt(2) / 2,
        }
        for (lo, up), expected in trio.items():
            cg = clebsch_gordan(scheme.by_label(lo), scheme.by_label(up))
            assert cg == pytest.approx(expected, abs=1e-12)

    def test_frozen_coupling_cg_values(self):
        scheme = build_level_scheme("sigma_f2")
        quad = {
            ("b2", "c1"): -math.sqrt(6) / 6,
            ("b3", "c2"): -0.5,
            ("b4", "c3"): -0.5,
            ("b5", "c4"): -math.sqrt(6) / 6,
        }
        for (lo, up), expected in quad.items():
            cg = clebsch_gordan(scheme.by_label(lo), scheme.by_label(up))
            assert cg == pytest.approx(expected, abs=1e-12)


class TestPathwayCensus:
    def test_asymmetric_scheme_counts(self):
        # the whole effect: 3 lambda subsystems against 2
        scheme = build_level_scheme("sigma_f2")
        minus = lambda_subsystems(scheme, WP10, WC80, SIGMA_MINUS)
        plus = lambda_subsystems(scheme, WP10, WC80, SIGMA_PLUS)
        assert len(minus) == 3
        assert len(plus) == 2

    def test_pi_scheme_mirror(self):
        scheme = build_level_scheme("pi_f2")
        coupling = FieldDrive(COUPLING, PI, TWO_PI * 80e6)
        minus = probe_pathways(scheme, WP10, coupling, SIGMA_MINUS)
        plus = probe_pathways(scheme, WP10, coupling, SIGMA_PLUS)
        assert len(minus) == len(plus) == 3
        for pm, pp in zip(minus, reversed(plus)):
            assert abs(pm.probe_rabi) == pytest.approx(abs(pp.probe_rabi))
            assert abs(pm.coupling_rabi) == pytest.approx(abs(pp.coupling_rabi))

    def test_f1_scheme_counts(self):
        scheme = build_level_scheme("sigma_f1")
        minus = lambda_subsystems(scheme, WP10, WC80, SIGMA_MINUS)
        plus = lambda_subsystems(scheme, WP10, WC80, SIGMA_PLUS)
        assert len(minus) == len(plus) == 2

    def test_sigma_f2_plus_component_has_bare_pathway(self):
        scheme = build_level_scheme("sigma_f2")
        plus = probe_pathways(scheme, WP10, WC80, SIGMA_PLUS)
        assert len(plus) == 3
        bare = [p for p in plus if p.partner is None]
        assert len(bare) == 1
        assert scheme.label(bare[0].ground) == "a3"

    def test_pathways_ordered_by_ground_m(self):
        scheme = build_level_scheme("sigma_f2")
        for component in (SIGMA_MINUS, SIGMA_PLUS):
            paths = probe_pathways(scheme, WP10, WC80, component)
            ms = [p.ground.m for p in paths]
            assert ms == sorted(ms)

    def test_strongest_line_carries_rabi_scale(self):
        scheme = build_level_scheme("sigma_f2")
        paths = probe_pathways(scheme, WP10, WC80, SIGMA_MINUS)
        assert max(abs(p.probe_rabi) for p in paths) == pytest.approx(
            WP10.rabi_scale
        )
        assert max(abs(p.coupling_rabi) for p in paths) == pytest.approx(
            WC80.rabi_scale
        )


class TestZeeman:
    def test_ten_gauss_shifts(self):
        # mu_B * (10 G) / hbar = 8.79410e7 rad/s, split by g_F * m
        scheme = build_level_scheme("sigma_f2")
        z = 10e-4
        unit = 8.794100056e7
        assert zeeman_shift(scheme.by_label("b5"), z) == pytest.approx(
            unit, rel=1e-8
        )
        assert zeeman_shift(scheme.by_label("a3"), z) == pytest.approx(
            -unit / 2, rel=1e-8
        )
        assert zeeman_shift(scheme.by_label("c5"), z) == pytest.approx(
            unit / 3, rel=1e-8
        )
        assert zeeman_shift(scheme.by_label("b3"), z) == 0.0

    def test_excited_g_auto_by_f(self):
        f1 = build_level_scheme("sigma_f1")
        z = 10e-4
        c3 = f1.by_label("c3")  # F'=1, m=+1
        assert c3.f == 1
        assert zeeman_shift(c3, z) == pytest.approx(-8.794100056e7 / 6, rel=1e-8)

    def test_none_field_is_zero(self):
        scheme = build_level_scheme("sigma_f2")
        assert zeeman_shift(scheme.by_label("b5"), 0.0) == 0.0


class TestStark:
    def test_frozen_shifts_at_80_mhz(self):
        scheme = build_level_scheme("sigma_f2")
        st = stark_shifts(WC80, scheme)
        assert st.shifts[0] == pytest.approx(TWO_PI * 0.65359477e6, rel=1e-6)
        assert st.shifts[1] == pytest.approx(TWO_PI * 1.96078431e6, rel=1e-6)
        assert st.shifts[2] == pytest.approx(TWO_PI * 3.92156863e6, rel=1e-6)

    def test_shift_ratios(self):
        # cg^2 ratios of the far-level lines: 1/3 : 1 : 2
        scheme = build_level_scheme("sigma_f2")
        st = stark_shifts(WC80, scheme)
        assert st.shifts[1] / st.shifts[0] == pytest.approx(3.0, rel=1e-9)
        assert st.shifts[2] / st.shifts[1] == pytest.approx(2.0, rel=1e-9)

    def test_quadratic_in_rabi(self):
        scheme = build_level_scheme("sigma_f2")
        st1 = stark_shifts(WC80, scheme)
        st2 = stark_shifts(
            FieldDrive(COUPLING, SIGMA_MINUS, 2 * WC80.rabi_scale), scheme
        )
        assert st2.shifts[1] == pytest.approx(4 * st1.shifts[1], rel=1e-12)

    def test_no_stark_is_zero(self):
        scheme = build_level_scheme("sigma_f2")
        for s in scheme.sublevels:
            assert NO_STARK.of(s) == 0.0


class TestCalibration:
    def test_anchors(self):
        assert rabi_from_power(15e-3, COUPLING) == pytest.approx(TWO_PI * 100e6)
        assert rabi_from_power(150e-6, PROBE) == pytest.approx(TWO_PI * 10e6)

    def test_square_root_scaling(self):
        assert rabi_from_power(60e-3, COUPLING) == pytest.approx(
            2 * rabi_from_power(15e-3, COUPLING)
        )

    def test_milliwatt_ladder(self):
        got = [rabi_from_power(p * 1e-3, COUPLING) / TWO_PI / 1e6 for p in (6, 10, 15)]
        assert got[0] == pytest.approx(63.2455532, rel=1e-8)
        assert got[1] == pytest.approx(81.6496581, rel=1e-8)
        assert got[2] == pytest.approx(100.0, rel=1e-12)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            rabi_from_power(-1e-3, COUPLING)


class TestFieldDrive:
    def test_linear_probe_has_two_components(self):
        assert WP10.components() == (SIGMA_MINUS, SIGMA_PLUS)

    def test_coupling_rejects_linear(self):
        with pytest.raises(ValueError):
            FieldDrive(COUPLING, LINEAR, 1.0)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            FieldDrive(PROBE, LINEAR, -1.0)

    def test_scheme_coupling_polarizations(self):
        assert coupling_polarization("sigma_f2") == SIGMA_MINUS
        assert coupling_polarization("pi_f2") == PI
        assert coupling_polarization("sigma_f1") == SIGMA_MINUS
