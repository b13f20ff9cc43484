"""Sweeps, peak extraction, scans, and the transmission census."""

import math
import tracemalloc
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
from eitrot import dynamics, scenarios, spectra
from eitrot.dynamics import (
    RelaxationRates,
    SteadyStateError,
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
)
from eitrot.spectra import SusceptibilityPair
from oracles import lindblad_rates, mhz

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


SCAN_POWERS = [6e-3, 8e-3, 10e-3, 12e-3, 15e-3]  # W, the CLI's default scan


def power_scan_sweeps(cfg, powers, monkeypatch):
    """The rows of a power scan and the sweeps they were found in."""
    results = []

    def record(result):
        results.append(result)
        return find_dispersion_peaks(result)

    with monkeypatch.context() as m:
        m.setattr(scenarios, "find_dispersion_peaks", record)
        rows = sweep_coupling_power(cfg, powers)
    return rows, results


def assert_same_sweep(a, b):
    assert np.array_equal(a.pair.chi_minus, b.pair.chi_minus)
    assert np.array_equal(a.pair.chi_plus, b.pair.chi_plus)
    assert np.array_equal(a.phi_exact, b.phi_exact)
    assert (a.cfg, a.medium, a.populations) == (b.cfg, b.medium, b.populations)


def synthetic_sweep(phi, detunings, coupling_detuning=0.0):
    return SweepResult(
        detunings=np.asarray(detunings, dtype=float), pair=None, medium=None,
        phi_exact=np.asarray(phi, dtype=float),
        cfg=ScenarioConfig(coupling_detuning=coupling_detuning), populations={},
    )


def signals(result):
    """The detector intensities of the linear probe after the sweep's cell."""
    return detector_intensities(
        propagate_cell(JonesVector.linear(), result.pair, result.medium), 1.0)


def choi_floor(lio):
    """Least eigenvalue of the generator's Choi matrix off the maximally
    entangled vector; >= 0 exactly when exp(L t) is completely positive."""
    n = math.isqrt(lio.shape[0])
    choi = lio.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    omega = np.eye(n).reshape(-1) / math.sqrt(n)
    proj = np.eye(n * n) - np.outer(omega, omega)
    part = proj @ choi @ proj
    return np.linalg.eigvalsh((part + part.conj().T) / 2).min()


def sweep_configs(scheme_id=st.sampled_from(SCHEME_IDS), b_gauss=st.floats(-30.0, 30.0)):
    """In-domain configurations over random drives, Lindblad rates (whose
    steady states pass the population check), fields and densities, on a
    short grid."""
    return st.builds(
        ScenarioConfig, scheme_id=scheme_id, probe_rabi=mhz(0.1, 40.0),
        coupling_rabi=mhz(0.0, 150.0), coupling_detuning=mhz(-20.0, 20.0),
        detuning_min=mhz(-60.0, -1.0), detuning_max=mhz(1.0, 60.0),
        points=st.just(41), density=st.floats(1e14, 1e19),
        b_field=b_gauss.map(lambda gauss: gauss * 1e-4), stark_enabled=st.booleans(),
        population_policy=st.sampled_from(["fixed", "per_point"]),
        rates=lindblad_rates())


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
        peaks = find_dispersion_peaks(synthetic_sweep(phi, x, coupling_detuning=3.0))
        assert peaks.found
        # crossing at pi, not at 0 (whose right peak would lie below pi)
        assert peaks.left.detuning < math.pi < peaks.right.detuning

    @pytest.mark.parametrize("phi, center, want", [
        # zeros between the signs: the crossing is the pair of nonzero
        # samples around them
        ([1, 2, 0, 0, -2, -1], 0.0, PeakPair(Peak(1.0, 2.0), Peak(4.0, -2.0))),
        # two crossings (0.5 and 2.5) equally near the centre: the first wins
        ([-1, 1, 1, -1, 0, 0], 1.5, PeakPair(Peak(0.0, -1.0), Peak(1.0, 1.0))),
        # equal extrema on a side: the first wins
        ([3, 3, -1, -2, -2, 0], 0.0, PeakPair(Peak(0.0, 3.0), Peak(3.0, -2.0))),
        # one nonzero sample crosses nothing
        ([0, 0, 3, 0, 0, 0], 0.0, PeakPair(None, None)),
    ], ids=["zeros-in-crossing", "tied-crossings", "tied-extrema", "lone-sample"])
    def test_tie_rules(self, phi, center, want):
        x = np.arange(6.0)
        got = find_dispersion_peaks(synthetic_sweep(phi, x, coupling_detuning=center))
        assert got == want


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
        s = signals(result)
        rec = 0.5 * np.arctan2(-(s.d3 - s.d4), -(s.d1 - s.d2))
        assert rec == pytest.approx(result.phi_exact, abs=1e-9)

    def test_detector_arrays_match_scalar_chain(self):
        result = sweep_probe_detuning(FIG_CFG)
        medium = FIG_CFG.medium()
        trace = signals(result)
        for i in (0, 17, 40, 63, 80):
            pair = SusceptibilityPair.from_chis(
                complex(result.pair.chi_minus[i]), complex(result.pair.chi_plus[i]), medium)
            point = detector_intensities(
                propagate_cell(JonesVector.linear(), pair, medium), 1.0)
            for name in ("d1", "d2", "d3", "d4"):
                assert getattr(trace, name)[i] == pytest.approx(
                    getattr(point, name), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("b_field", [0.0, 10e-4])
    def test_shifted_diagonal_populations_match_direct_solve(self, b_field):
        # -40 to 40 MHz in steps of 4 MHz, two-photon resonance at 4 MHz
        grid = replace(FIG_CFG, b_field=b_field, points=21, population_policy="per_point")
        dets = grid.detunings()
        cfg = replace(grid, coupling_detuning=dets[11])
        scheme = cfg.scheme()
        coupling = cfg.coupling_drive()
        stark = cfg.stark(scheme)
        pops = scenarios._atom_stage(cfg).populations
        for k, det in enumerate(dets):
            h = build_hamiltonian(scheme, cfg.probe_drive(det), coupling, stark,
                                  cfg.b_field)
            rho = solve_steady_state(build_liouvillian(scheme, h, cfg.rates))
            for i, s in enumerate(scheme.sublevels):
                if s in pops:
                    assert pops[s][k] == pytest.approx(rho[i, i].real, abs=1e-12)

    def test_population_metadata_and_policy(self):
        fixed = sweep_probe_detuning(replace(FIG_CFG, points=11))
        assert fixed.cfg.population_policy == "fixed"
        pops = {FIG_CFG.scheme().label(s): v for s, v in fixed.populations.items()}
        assert set(pops) >= {"a1", "a2", "a3", "b1"}
        assert all(v >= 0 for v in pops.values())
        # the strong coupling parks a good fraction in the excited manifold,
        # so the eight ground occupations sum to less than one
        assert 0.6 < sum(pops.values()) < 1.0
        per_point = sweep_probe_detuning(
            replace(FIG_CFG, points=11, population_policy="per_point"))
        assert per_point.cfg.population_policy == "per_point"
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
        np.testing.assert_array_max_ulp(result.pair.n_minus, result.pair.n_plus, maxulp=1)

    @settings(max_examples=50, deadline=None)
    @given(cfg=sweep_configs(), factor=st.floats(0.01, 100.0))
    def test_chi_is_linear_in_density(self, cfg, factor):
        one = sweep_probe_detuning(cfg)
        scaled = sweep_probe_detuning(replace(cfg, density=factor * cfg.density))
        for chi, got in ((one.pair.chi_minus, scaled.pair.chi_minus),
                         (one.pair.chi_plus, scaled.pair.chi_plus)):
            want = factor * chi
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @settings(max_examples=100, deadline=None)
    @given(cfg=sweep_configs(), probe_detuning=mhz(-60.0, 60.0))
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

    @settings(max_examples=40, deadline=None)
    @given(cfg=sweep_configs(), probe_off=st.booleans(),
           coupling_off=st.booleans())
    def test_lindblad_rates_pass_the_population_check(self, cfg, probe_off, coupling_off):
        # the steady state of a Lindblad generator is a density matrix, so no
        # population at any solved detuning trips the check, with either
        # drive off too (its populations can then be exactly zero)
        cfg = replace(cfg, population_policy="per_point",
                      probe_rabi=0.0 if probe_off else cfg.probe_rabi,
                      coupling_rabi=0.0 if coupling_off else cfg.coupling_rabi)
        scenarios._atom_stage(cfg)

    def test_fixed_policy_fails_the_population_check_at_resonance(self):
        # gamma_ca = gamma/2 is not enough for a Lindblad generator: transit
        # damps no coherence (see RelaxationRates), and the one steady state
        # the fixed policy solves is not a density matrix
        cfg = ScenarioConfig(
            scheme_id="sigma_f1", probe_rabi=TWO_PI * 4e6, coupling_rabi=0.0,
            stark_enabled=False, density=1e17, detuning_min=-TWO_PI * 10e6,
            detuning_max=TWO_PI * 10e6, points=41,
            rates=RelaxationRates(gamma=TWO_PI * 3e6, gamma_ca=TWO_PI * 1.5e6,
                                  gamma_ba=TWO_PI * 0.0547e6,
                                  gamma_transit=TWO_PI * 3e6))
        assert cfg.population_policy == "fixed"
        with pytest.raises(SteadyStateError) as err:
            sweep_probe_detuning(cfg)
        assert str(err.value) == ("steady state is not a density matrix: "
                                  "population c2 = -8.4e-05 at 0 MHz")


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
        n_cold = rows[0][1].medium.density
        n_hot = rows[1][1].medium.density
        # explicit density is dropped; both points sit on the curve
        assert n_cold == pytest.approx(1.62e17, rel=1e-9)
        assert n_hot / n_cold == pytest.approx(2.302, abs=0.002)
        hot_max = np.max(np.abs(rows[1][1].phi_exact))
        cold_max = np.max(np.abs(rows[0][1].phi_exact))
        assert hot_max > cold_max

    @pytest.mark.parametrize("policy", ["fixed", "per_point"])
    def test_temperature_scan_equals_independent_sweeps(self, policy):
        # temperature and density enter the medium only, so resolving the
        # atom once for the scan changes no bit of any sweep
        cfg = replace(FIG_CFG, points=41, b_field=10e-4, population_policy=policy)
        temps = [318.15, 328.15, 338.15]
        for t, result in sweep_temperature(cfg, temps):
            alone = sweep_probe_detuning(replace(cfg, temperature=t, density=None))
            assert np.array_equal(result.pair.chi_minus, alone.pair.chi_minus)
            assert np.array_equal(result.pair.chi_plus, alone.pair.chi_plus)
            assert np.array_equal(result.phi_exact, alone.phi_exact)
            assert (result.medium, result.populations) == (alone.medium, alone.populations)
            # the scan's one atom differs from each sweep's only in the medium
            assert result.cfg == replace(alone.cfg, temperature=cfg.temperature,
                                         density=cfg.density)

    @pytest.mark.parametrize("b_field", [0.0, 10e-4])
    @pytest.mark.parametrize("policy", ["fixed", "per_point"])
    def test_power_scan_equals_independent_sweeps(self, policy, b_field, monkeypatch):
        # the coupling strength enters the atom only, so one medium stage
        # for every power changes no bit of any sweep
        cfg = replace(FIG_CFG, points=41, b_field=b_field, population_policy=policy)
        rows, results = power_scan_sweeps(cfg, SCAN_POWERS, monkeypatch)
        for (_, rabi, peaks), result in zip(rows, results):
            alone = sweep_probe_detuning(replace(cfg, coupling_rabi=rabi))
            assert_same_sweep(result, alone)
            assert peaks == find_dispersion_peaks(alone)

    def test_scans_split_at_the_element_budget_are_unchanged(self, monkeypatch):
        cfg = replace(FIG_CFG, points=41, b_field=10e-4, population_policy="per_point")
        temps = [318.15, 328.15, 338.15]
        whole = (power_scan_sweeps(cfg, SCAN_POWERS, monkeypatch)[1],
                 sweep_temperature(cfg, temps))
        monkeypatch.setattr(spectra, "_STACK_ELEMENTS", 1)
        split = (power_scan_sweeps(cfg, SCAN_POWERS, monkeypatch)[1],
                 sweep_temperature(cfg, temps))
        for a, b in zip(whole[0], split[0]):
            assert_same_sweep(a, b)
        for (_, a), (_, b) in zip(whole[1], split[1]):
            assert_same_sweep(a, b)

    @pytest.mark.parametrize("scan, points, calls", [
        ("power", 161, 1), ("temperature", 161, 1), ("power", 1201, 5),
        ("spectrum", 1201, 1), ("spectrum", 4001, 3), ("spectrum", 20001, 15),
        ("per_point", 10001, 8)])
    def test_kernel_calls_per_scan(self, scan, points, calls, monkeypatch):
        # the kernel takes every pathway row of a scan over blocks of as many
        # detunings as the element budget holds: the 5 x 6 rows of a power
        # scan over 273, so 161 points are one block and 1201 five; the
        # 3 x 6 rows of a temperature scan over 455; the 6 rows of a spectrum
        # over 1365, so 1201 points are one block, 4001 three, 20001 fifteen
        # and 10001 eight. No block exceeds the budget at any grid length.
        sizes = []
        kernel = spectra.doppler_average
        monkeypatch.setattr(spectra, "doppler_average",
                            lambda denom, kv: sizes.append(denom.size) or kernel(denom, kv))
        cfg = ScenarioConfig(points=points)
        if scan == "power":
            sweep_coupling_power(cfg, SCAN_POWERS)
        elif scan == "temperature":
            sweep_temperature(cfg, [318.15, 328.15, 338.15])
        elif scan == "per_point":
            sweep_probe_detuning(replace(cfg, population_policy="per_point", b_field=10e-4))
        else:
            sweep_probe_detuning(cfg)
        rows = {"power": 5 * 6, "temperature": 3 * 6}.get(scan, 6)
        assert len(sizes) == calls
        assert max(sizes) <= max(spectra._STACK_ELEMENTS, rows)

    def test_a_long_power_scan_weights_each_kernel_block_in_place(self):
        # the 1201-point power scan takes its 30 pathway rows over 5 kernel
        # blocks of detunings; weighting each block as it is computed and
        # writing its sums into chi peaks at about 1245 KiB under
        # tracemalloc, against about 2075 KiB for a separate array of
        # weighted partials filled after the last block
        sweep_coupling_power(ScenarioConfig(), SCAN_POWERS)  # warm the caches
        tracemalloc.start()
        try:
            sweep_coupling_power(ScenarioConfig(), SCAN_POWERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1800 * 1024

    def test_a_seen_pattern_is_not_assembled_whole(self, monkeypatch):
        # the whole superoperator is assembled once per scheme and nonzero
        # pattern of h, to find the population block; later sweeps of that
        # pattern assemble the block only
        cfg = replace(FIG_CFG, points=11, population_policy="per_point")
        first = sweep_probe_detuning(cfg)

        def whole(*args):
            raise AssertionError("the whole superoperator was assembled")

        for module in (dynamics, scenarios):
            monkeypatch.setattr(module, "build_liouvillian", whole, raising=False)
        again = sweep_probe_detuning(cfg)
        assert np.array_equal(again.phi_exact, first.phi_exact)
        sweep_probe_detuning(replace(cfg, coupling_rabi=2.0 * cfg.coupling_rabi,
                                     rates=RelaxationRates(gamma_transit=TWO_PI * 0.5e6)))


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
        curve = TransmissionCurve(np.arange(t.size, dtype=float), t)
        span = t.max() - t.min()
        want = 0 if span == 0 else len(find_peaks(t, prominence=fraction * span)[0])
        with mock.patch.object(scenarios, "_PROMINENCE_FRACTION", fraction):
            assert count_transmission_peaks(curve) == want
