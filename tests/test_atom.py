"""Level schemes, shifts, pathway census, and power calibration."""

import contextlib
import functools
import math

import numpy as np
import pytest

from eitrot import dynamics, scenarios
from eitrot.atom import (
    COUPLING,
    LINEAR,
    NO_STARK,
    PI,
    PROBE,
    SCHEME_IDS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    DriveLines,
    FieldDrive,
    Sublevel,
    build_level_scheme,
    coupling_polarization,
    decay_amplitude,
    lambda_subsystems,
    probe_pathways,
    rabi_from_power,
    stark_shifts,
    zeeman_shift,
)
from eitrot.cli import parse_config
from eitrot.detection import JonesVector
from eitrot.dynamics import level_index
from eitrot.scenarios import ScenarioConfig, sweep_probe_detuning
from eitrot.spectra import rotation_angle

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
            g, e = scheme.by_label(lo), scheme.by_label(up)
            cg = decay_amplitude(g.f, g.m, e.f, e.m)
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
            g, e = scheme.by_label(lo), scheme.by_label(up)
            cg = decay_amplitude(g.f, g.m, e.f, e.m)
            assert cg == pytest.approx(expected, abs=1e-12)


class TestSchemeCache:
    def test_one_scheme_per_id(self):
        assert build_level_scheme("sigma_f2") is build_level_scheme("sigma_f2")

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_sweep_leaves_the_scheme_as_built(self, scheme_id):
        cached = build_level_scheme(scheme_id)
        sweep_probe_detuning(ScenarioConfig(scheme_id=scheme_id, points=11))
        assert build_level_scheme(scheme_id) is cached
        assert cached == build_level_scheme.__wrapped__(scheme_id)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_lines_cover_every_admitted_drive(self, scheme_id):
        admitted = set()
        for which in (PROBE, COUPLING):
            for polarization in (SIGMA_MINUS, SIGMA_PLUS, PI, LINEAR):
                with contextlib.suppress(ValueError):
                    FieldDrive(which, polarization, 0.0)
                    admitted.add((which, polarization))
        assert admitted == {(PROBE, SIGMA_MINUS), (PROBE, SIGMA_PLUS), (PROBE, LINEAR),
                            (COUPLING, SIGMA_MINUS), (COUPLING, SIGMA_PLUS), (COUPLING, PI)}
        assert set(build_level_scheme(scheme_id).lines) == admitted

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_tables_are_read_only(self, scheme_id):
        scheme = build_level_scheme(scheme_id)
        with pytest.raises(TypeError):
            scheme.index[scheme.sublevels[0]] = 1
        with pytest.raises(TypeError):
            scheme.lines[PROBE, LINEAR] = scheme.lines[PROBE, SIGMA_MINUS]
        assert scheme.index[scheme.sublevels[0]] == 0

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_drive_tables_are_read_only(self, scheme_id):
        # a cached scheme serves the whole process, so no caller may change
        # the coupling partners or the far amplitudes of any drive
        scheme = build_level_scheme(scheme_id)
        coupling = FieldDrive(COUPLING, coupling_polarization(scheme_id), TWO_PI * 80e6)
        shifts = dict(stark_shifts(coupling, scheme))
        for drive, lines in scheme.lines.items():
            assert isinstance(lines, DriveLines), drive
            for table in (lines.partners, lines.far):
                with pytest.raises(TypeError):
                    table[next(iter(table), 0)] = 99.0
        assert stark_shifts(coupling, scheme) == shifts


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
        assert st[0] == pytest.approx(TWO_PI * 0.65359477e6, rel=1e-6)
        assert st[1] == pytest.approx(TWO_PI * 1.96078431e6, rel=1e-6)
        assert st[2] == pytest.approx(TWO_PI * 3.92156863e6, rel=1e-6)

    def test_shift_ratios(self):
        # cg^2 ratios of the far-level lines: 1/3 : 1 : 2
        scheme = build_level_scheme("sigma_f2")
        st = stark_shifts(WC80, scheme)
        assert st[1] / st[0] == pytest.approx(3.0, rel=1e-9)
        assert st[2] / st[1] == pytest.approx(2.0, rel=1e-9)

    def test_quadratic_in_rabi(self):
        scheme = build_level_scheme("sigma_f2")
        st1 = stark_shifts(WC80, scheme)
        st2 = stark_shifts(
            FieldDrive(COUPLING, SIGMA_MINUS, 2 * WC80.rabi_scale), scheme
        )
        assert st2[1] == pytest.approx(4 * st1[1], rel=1e-12)

    def test_no_stark_is_zero(self):
        assert dict(NO_STARK) == {}
        with pytest.raises(TypeError):
            NO_STARK[0] = 1.0


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


@functools.cache
def _records() -> dict:
    """One instance of each plain record, by class name."""
    scheme = build_level_scheme("sigma_f2")
    cfg = ScenarioConfig(points=41, detuning_min=-TWO_PI * 40e6,
                         detuning_max=TWO_PI * 40e6)
    result = sweep_probe_detuning(cfg)
    peaks = scenarios.find_dispersion_peaks(result)
    return {
        "Sublevel": scheme.sublevels[0],
        "Transition": scheme.transitions[0],
        "LevelScheme": scheme,
        "DriveLines": scheme.lines[COUPLING, SIGMA_MINUS],
        "ProbePathway": probe_pathways(scheme, WP10, WC80, SIGMA_MINUS)[0],
        "JonesVector": JonesVector.linear(),
        "_Scatter": dynamics._scatter_tables(scheme, np.arange(169)),
        "SusceptibilityPair": result.pair,
        "RotationAngle": rotation_angle(result.pair, result.medium),
        "Peak": peaks.left,
        "PeakPair": peaks,
        "SweepResult": result,
        "TransmissionCurve": scenarios.eit_transmission(cfg, SIGMA_MINUS),
        "_Atom": scenarios._atom_stage(cfg),
        "RunSpec": parse_config({"scenario": "spectrum"}),
    }


class TestRecords:
    @pytest.mark.parametrize("name", [
        "Sublevel", "Transition", "LevelScheme", "DriveLines", "ProbePathway",
        "JonesVector", "_Scatter", "SusceptibilityPair", "RotationAngle", "Peak",
        "PeakPair", "SweepResult", "TransmissionCurve", "_Atom", "RunSpec"])
    def test_fields_cannot_be_set(self, name):
        record = _records()[name]
        assert type(record).__name__ == name
        first = next(iter(type(record).__annotations__))
        with pytest.raises(AttributeError):
            setattr(record, first, getattr(record, first))

    def test_sublevel_is_keyed_by_value(self):
        scheme = build_level_scheme("sigma_f2")
        own = scheme.by_label("b4")
        made = Sublevel("ground_f2", 1, 2)
        assert made == own and hash(made) == hash(own)
        index = level_index(scheme)
        assert index[made] == index[own] == 6  # after a1..a3, b1..b3

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_sublevels_sort_by_manifold_m_and_f(self, scheme_id):
        sublevels = build_level_scheme(scheme_id).sublevels
        by_fields = sorted(sublevels, key=lambda s: (s.manifold, s.m, s.f))
        assert sorted(sublevels) == by_fields
