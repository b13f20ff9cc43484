"""Superoperator structure, steady-state solves, and the weak-probe forms."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eitrot.atom import (
    COUPLING,
    LINEAR,
    PROBE,
    SIGMA_MINUS,
    TWO_PI,
    FieldDrive,
    build_level_scheme,
    probe_pathways,
    stark_shifts,
)
from eitrot.dynamics import (
    RelaxationRates,
    SteadyStateError,
    build_hamiltonian,
    build_liouvillian,
    coupled_element_count,
    level_index,
    probe_detuning_slope,
    solve_steady_state,
    steady_state_populations,
)
from eitrot.scenarios import ScenarioConfig, steady_populations
from oracles import analytic_coherences

GAMMA = TWO_PI * 5.75e6
GAMMA_CA = TWO_PI * 3.5e6
GAMMA_BA = TWO_PI * 1.1e6

SCHEME = build_level_scheme("sigma_f2")
WP10 = FieldDrive(PROBE, LINEAR, TWO_PI * 10e6)
WC80 = FieldDrive(COUPLING, SIGMA_MINUS, TWO_PI * 80e6)


def lio_entry(lio, scheme, row, col):
    """Superoperator coefficient d rho[row]/dt <- rho[col], by label pairs."""
    idx = level_index(scheme)
    n = len(scheme.sublevels)
    r = idx[scheme.by_label(row[0])] * n + idx[scheme.by_label(row[1])]
    c = idx[scheme.by_label(col[0])] * n + idx[scheme.by_label(col[1])]
    return lio[r, c]


def default_lio(rates=RelaxationRates(), probe=WP10, coupling=WC80, **kw):
    h = build_hamiltonian(SCHEME, probe, coupling,
                          stark=stark_shifts(coupling, SCHEME), **kw)
    return build_liouvillian(SCHEME, h, rates)


class TestHamiltonian:
    def test_diagonal_frame(self):
        probe = FieldDrive(PROBE, LINEAR, TWO_PI * 10e6, detuning=TWO_PI * 3e6)
        coupling = FieldDrive(COUPLING, SIGMA_MINUS, TWO_PI * 80e6,
                              detuning=TWO_PI * 1e6)
        h = build_hamiltonian(SCHEME, probe, coupling,
                              stark=stark_shifts(coupling, SCHEME))
        idx = level_index(SCHEME)
        two_photon = TWO_PI * 2e6
        assert h[idx[SCHEME.by_label("a2")], idx[SCHEME.by_label("a2")]] == 0.0
        assert h[idx[SCHEME.by_label("c3")], idx[SCHEME.by_label("c3")]] == pytest.approx(
            -TWO_PI * 3e6)
        # b4 sits at -(two-photon) minus its light shift
        d_b4 = TWO_PI * 1.96078431e6
        assert h[idx[SCHEME.by_label("b4")], idx[SCHEME.by_label("b4")]].real == pytest.approx(
            -two_photon - d_b4, rel=1e-6)

    def test_hermitian_with_zeeman(self):
        h = build_hamiltonian(SCHEME, WP10, WC80,
                              stark=stark_shifts(WC80, SCHEME),
                              b_field=10e-4)
        assert np.abs(h - h.conj().T).max() == 0.0

    def test_line_strengths_scale_with_amplitude_ratio(self):
        h = build_hamiltonian(SCHEME, WP10, WC80)
        idx = level_index(SCHEME)

        def hop(upper, lower):
            return h[idx[SCHEME.by_label(upper)], idx[SCHEME.by_label(lower)]]

        # strongest driven line of each field carries half its Rabi scale
        assert abs(hop("c3", "b4")) == pytest.approx(0.5 * TWO_PI * 80e6)
        assert abs(hop("c1", "a1")) == pytest.approx(0.5 * TWO_PI * 10e6)
        # mirror sigma+ line equal by symmetry, weak line down by 1/sqrt(6)
        assert hop("c5", "a3") == pytest.approx(hop("c1", "a1"))
        assert hop("c3", "a3") / hop("c1", "a1") == pytest.approx(
            1.0 / math.sqrt(6), rel=1e-12)


class TestLiouvillianStructure:
    def test_trace_annihilation(self):
        lio = default_lio()
        n = len(SCHEME.sublevels)
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = a + a.conj().T
            drho = (lio @ rho.reshape(-1)).reshape(n, n)
            assert abs(np.trace(drho)) < 1e-6 * np.abs(lio).max()

    def test_optical_coherence_row(self):
        det = TWO_PI * 4e6
        probe = FieldDrive(PROBE, LINEAR, TWO_PI * 10e6, detuning=det)
        lio = default_lio(probe=probe)
        got = lio_entry(lio, SCHEME, ("c1", "a1"), ("c1", "a1"))
        assert got == pytest.approx(-GAMMA_CA + 1j * det, rel=1e-12)

    def test_two_photon_coherence_row_carries_light_shift(self):
        lio = default_lio()
        got = lio_entry(lio, SCHEME, ("b4", "a3"), ("b4", "a3"))
        assert got.real == pytest.approx(-GAMMA_BA)
        assert got.imag == pytest.approx(TWO_PI * 1.96078431e6, rel=1e-6)

    def test_repopulation_coefficients(self):
        lio = default_lio()
        # population inflow a1 <- c1 with branching (sqrt2/2)^2
        assert lio_entry(lio, SCHEME, ("a1", "a1"), ("c1", "c1")) == pytest.approx(
            GAMMA / 2, rel=1e-12)
        # same-manifold coherence inflow, signed amplitude products
        assert lio_entry(lio, SCHEME, ("a1", "a2"), ("c1", "c2")) == pytest.approx(
            GAMMA * math.sqrt(2) / 4, rel=1e-12)
        assert lio_entry(lio, SCHEME, ("a1", "a3"), ("c1", "c3")) == pytest.approx(
            GAMMA * math.sqrt(6) / 12, rel=1e-12)
        assert lio_entry(lio, SCHEME, ("a1", "a3"), ("c2", "c4")) == pytest.approx(
            GAMMA / 4, rel=1e-12)
        assert lio_entry(lio, SCHEME, ("a1", "a3"), ("c3", "c5")) == pytest.approx(
            GAMMA * math.sqrt(6) / 12, rel=1e-12)

    def test_decay_builds_no_cross_manifold_coherence(self):
        lio = default_lio()
        for exc in (("c3", "c3"), ("c4", "c4"), ("c5", "c5")):
            assert lio_entry(lio, SCHEME, ("b4", "a3"), exc) == 0.0
        assert lio_entry(lio, SCHEME, ("b2", "a1"), ("c1", "c1")) == 0.0

    def test_transit_touches_populations_only(self):
        rates = RelaxationRates(gamma_transit=TWO_PI * 1e6)
        probe = FieldDrive(PROBE, LINEAR, 0.0)
        coupling = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        h = build_hamiltonian(SCHEME, probe, coupling)
        lio = build_liouvillian(SCHEME, h, rates)
        gt = rates.gamma_transit
        assert lio_entry(lio, SCHEME, ("a1", "a1"), ("b5", "b5")) == pytest.approx(gt / 8)
        assert lio_entry(lio, SCHEME, ("a1", "a1"), ("a1", "a1")) == pytest.approx(
            -gt + gt / 8)
        # ground coherences decay at their own rate, no transit fill
        assert lio_entry(lio, SCHEME, ("a1", "a2"), ("a1", "a2")) == pytest.approx(
            -rates.ground_coherence)
        assert lio_entry(lio, SCHEME, ("a1", "a2"), ("b1", "b2")) == 0.0

    def test_ground_coherence_rate_override(self):
        rates = RelaxationRates(gamma_ground=TWO_PI * 0.3e6)
        lio = default_lio(rates=rates)
        got = lio_entry(lio, SCHEME, ("b2", "b3"), ("b2", "b3"))
        assert got.real == pytest.approx(-TWO_PI * 0.3e6, rel=1e-9)

    def test_rates_domain(self):
        # zero is allowed where the closed-form Doppler average stays valid
        RelaxationRates(gamma_ba=0.0, gamma_ground=0.0, gamma_transit=0.0)
        for field, value in (("gamma", 0.0), ("gamma_ca", 0.0),
                             ("gamma_ba", -1.0), ("gamma_ground", math.nan),
                             ("gamma_transit", math.inf)):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                RelaxationRates(**{field: value})

    def test_equation_dump_shows_eit_link(self):
        # read from the equations of motion (the superoperator): the probe
        # coherence c1-a1 is fed by the ground coherence b2-a1 through the
        # coupling, and decay feeds no F2-F1 coherence
        lio = default_lio()
        assert lio_entry(lio, SCHEME, ("c1", "a1"), ("b2", "a1")) != 0.0
        assert lio_entry(lio, SCHEME, ("b4", "a3"), ("c3", "c3")) == 0.0


class TestSteadyState:
    @pytest.mark.parametrize("scheme_id,b_field", [
        ("sigma_f2", 0.0), ("sigma_f2", 10e-4), ("pi_f2", 0.0), ("sigma_f1", 0.0),
    ])
    def test_hygiene(self, scheme_id, b_field):
        scheme = build_level_scheme(scheme_id)
        coupling = FieldDrive(COUPLING, coupling_pol(scheme_id), TWO_PI * 80e6)
        h = build_hamiltonian(scheme, WP10, coupling,
                              stark=stark_shifts(coupling, scheme), b_field=b_field)
        rho = solve_steady_state(build_liouvillian(scheme, h, RelaxationRates()))
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_matches_time_integration(self):
        lio = default_lio()
        n = len(SCHEME.sublevels)
        rho0 = np.zeros((n, n), dtype=complex)
        idx = level_index(SCHEME)
        for s in SCHEME.ground():
            rho0[idx[s], idx[s]] = 1.0 / 8.0
        propagated = scipy.linalg.expm(lio * 20e-6) @ rho0.reshape(-1)
        rho = solve_steady_state(lio)
        assert np.abs(propagated.reshape(n, n) - rho).max() < 1e-8

    def test_fields_off_is_uniform_ground(self):
        probe = FieldDrive(PROBE, LINEAR, 0.0)
        coupling = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        h = build_hamiltonian(SCHEME, probe, coupling)
        rho = solve_steady_state(build_liouvillian(SCHEME, h, RelaxationRates()))
        pops = {s: rho[i, i].real for s, i in level_index(SCHEME).items()}
        for s in SCHEME.ground():
            assert pops[s] == pytest.approx(1.0 / 8.0, abs=1e-12)
        for s in SCHEME.excited():
            assert pops[s] == pytest.approx(0.0, abs=1e-12)

    def test_probe_census_is_75(self):
        lio = default_lio()
        assert coupled_element_count(lio, SCHEME, WP10, WC80) == 75

    def test_degenerate_system_raises(self):
        probe = FieldDrive(PROBE, LINEAR, 0.0)
        coupling = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        h = build_hamiltonian(SCHEME, probe, coupling)
        lio = build_liouvillian(SCHEME, h, RelaxationRates(gamma_transit=0.0))
        with pytest.raises(SteadyStateError) as err:
            solve_steady_state(lio)
        assert err.value.null_dim is None or err.value.null_dim >= 2

    def test_non_finite_superoperator_raises_without_diagnosis(self):
        lio = default_lio()
        lio[5, 7] = np.nan
        with pytest.raises(SteadyStateError, match="not finite") as err:
            solve_steady_state(lio)
        assert err.value.null_dim is None
        with pytest.raises(SteadyStateError, match="not finite") as err:
            steady_state_populations(lio, probe_detuning_slope(SCHEME),
                                     [0.0, TWO_PI * 3e6])
        assert err.value.null_dim is None

    def test_overflowing_solution_raises_without_diagnosis(self):
        # finite two-level system whose solution overflows:
        # rho[0, 1] = -1e300 / 1e-10 * rho[0, 0]
        lio = np.zeros((4, 4), dtype=complex)
        lio[1, 0], lio[1, 1], lio[2, 2], lio[3, 3] = 1e300, 1e-10, 1.0, 1.0
        with pytest.raises(SteadyStateError, match="not finite") as err:
            solve_steady_state(lio)
        assert err.value.null_dim is None
        # and the superoperator is handed back unchanged
        assert lio[0].tolist() == [0, 0, 0, 0]
        with pytest.raises(SteadyStateError, match="not finite"):
            steady_state_populations(lio, np.zeros(4), [0.0])
        assert lio[0].tolist() == [0, 0, 0, 0]

    def test_superoperator_is_not_modified(self):
        lio = default_lio()
        before = lio.copy()
        lio.flags.writeable = False
        rho = solve_steady_state(lio)  # copies, so a read-only input works
        with pytest.raises(ValueError, match="read-only"):
            steady_state_populations(lio, probe_detuning_slope(SCHEME), [0.0])
        assert np.array_equal(lio, before)
        lio.flags.writeable = True
        pops = steady_state_populations(lio, probe_detuning_slope(SCHEME),
                                        [0.0, TWO_PI * 3e6])
        # row 0 held the trace row during the solve and is restored exactly
        assert np.array_equal(lio, before)
        assert pops[0] == pytest.approx(rho.diagonal().real, abs=1e-14)

    def test_quoted_population_triples(self):
        targets = {
            60e6: (0.219, 0.228, 0.066),
            80e6: (0.226, 0.233, 0.066),
            100e6: (0.229, 0.235, 0.065),
        }
        for wc, target in targets.items():
            pops = steady_populations(
                ScenarioConfig(probe_rabi=TWO_PI * 10e6, coupling_rabi=TWO_PI * wc))
            for a, want in zip(("a1", "a2", "a3"), target):
                assert pops[SCHEME.by_label(a)] == pytest.approx(want, abs=0.015)


def coupling_pol(scheme_id):
    return "pi" if scheme_id == "pi_f2" else SIGMA_MINUS


MHZ = TWO_PI * 1e6


class TestSteadyStatePopulations:
    """One factorization plus a low-rank update against a dense solve of the
    superoperator rebuilt at each probe detuning."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        probe_mhz=st.floats(0.1, 40.0),
        coupling_mhz=st.floats(0.0, 150.0),
        coupling_detuning_mhz=st.floats(-20.0, 20.0),
        b_gauss=st.sampled_from([0.0, 1.0, 10.0, 25.0]),
        stark=st.booleans(),
        gamma_mhz=st.floats(3.0, 10.0),
        gamma_ca_mhz=st.floats(1.0, 10.0),
        # undamped ground coherences make the steady state degenerate
        gamma_ba_mhz=st.floats(0.05, 3.0),
        gamma_ground_mhz=st.none() | st.floats(0.05, 3.0),
        transit_mhz=st.floats(0.05, 3.0),
        probe_detunings_mhz=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6),
    )
    def test_matches_per_point_dense_solve(
        self, scheme_id, probe_mhz, coupling_mhz, coupling_detuning_mhz, b_gauss,
        stark, gamma_mhz, gamma_ca_mhz, gamma_ba_mhz, gamma_ground_mhz,
        transit_mhz, probe_detunings_mhz,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id,
            probe_rabi=probe_mhz * MHZ,
            coupling_rabi=coupling_mhz * MHZ,
            coupling_detuning=coupling_detuning_mhz * MHZ,
            b_field=b_gauss * 1e-4,
            stark_enabled=stark,
            rates=RelaxationRates(
                gamma=gamma_mhz * MHZ, gamma_ca=gamma_ca_mhz * MHZ,
                gamma_ba=gamma_ba_mhz * MHZ,
                gamma_ground=None if gamma_ground_mhz is None else gamma_ground_mhz * MHZ,
                gamma_transit=transit_mhz * MHZ,
            ),
        )
        scheme = cfg.scheme()
        coupling = cfg.coupling_drive()
        stark_shift = cfg.stark(scheme)
        dets = MHZ * np.array([0.0, *probe_detunings_mhz]) + cfg.coupling_detuning

        def lio_at(det):
            h = build_hamiltonian(scheme, cfg.probe_drive(det), coupling,
                                  stark_shift, cfg.b_field)
            return build_liouvillian(scheme, h, cfg.rates)

        pops = steady_state_populations(lio_at(cfg.coupling_detuning),
                                        probe_detuning_slope(scheme),
                                        dets - cfg.coupling_detuning)
        assert pops.shape == (len(dets), len(scheme.sublevels))
        for k, det in enumerate(dets):
            rho = solve_steady_state(lio_at(det))
            assert pops[k] == pytest.approx(rho.diagonal().real, abs=1e-12)

    def test_zero_offsets_give_the_resonance_solve(self):
        lio = default_lio()
        pops = steady_state_populations(lio, probe_detuning_slope(SCHEME), [0.0, 0.0])
        direct = solve_steady_state(lio).diagonal().real
        assert np.array_equal(pops, [direct, direct])


class TestAnalyticCoherences:
    def test_bare_pathway_closed_form(self):
        det = TWO_PI * 2e6
        probe = FieldDrive(PROBE, LINEAR, TWO_PI * 1e6, detuning=det)
        pops = {SCHEME.by_label("a3"): 0.1}
        out = analytic_coherences(pops, SCHEME, probe, WC80, RelaxationRates(),
                                  stark=stark_shifts(WC80, SCHEME))
        path = next(p for p in probe_pathways(SCHEME, probe, WC80, "sigma_plus")
                    if SCHEME.label(p.ground) == "a3")
        expected = 0.5j * path.probe_rabi * 0.1 / (GAMMA_CA - 1j * det)
        assert out[("c5", "a3")] == pytest.approx(expected, rel=1e-12)

    def test_no_coupling_reduces_to_two_level(self):
        probe = FieldDrive(PROBE, LINEAR, TWO_PI * 1e6, detuning=TWO_PI * 5e6)
        off = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        pops = {s: 1.0 / 8.0 for s in SCHEME.ground()}
        out = analytic_coherences(pops, SCHEME, probe, off, RelaxationRates())
        for (upper, lower), value in out.items():
            path = next(
                p for comp in probe.components()
                for p in probe_pathways(SCHEME, probe, off, comp)
                if SCHEME.label(p.ground) == lower and SCHEME.label(p.excited) == upper
            )
            bare = 0.5j * path.probe_rabi * 0.125 / (GAMMA_CA - 1j * probe.detuning)
            assert value == pytest.approx(bare, rel=1e-12)

    def test_eit_suppression_factor_on_resonance(self):
        probe = FieldDrive(PROBE, LINEAR, TWO_PI * 1e6)
        pops = {s: 1.0 / 8.0 for s in SCHEME.ground()}
        with_c = analytic_coherences(pops, SCHEME, probe, WC80, RelaxationRates())
        without = analytic_coherences(
            pops, SCHEME, probe, FieldDrive(COUPLING, SIGMA_MINUS, 0.0),
            RelaxationRates())
        path = next(p for p in probe_pathways(SCHEME, probe, WC80, SIGMA_MINUS)
                    if SCHEME.label(p.ground) == "a1")
        factor = GAMMA_CA / (GAMMA_CA + abs(path.coupling_rabi) ** 2 / (4 * GAMMA_BA))
        got = abs(with_c[("c1", "a1")]) / abs(without[("c1", "a1")])
        assert got == pytest.approx(factor, rel=1e-12)

    def test_two_photon_structure_follows_common_shift(self):
        # shifting both detunings together keeps the EIT term resonant and
        # the coherence suppressed; detuning only the probe releases it
        pops = {s: 1.0 / 8.0 for s in SCHEME.ground()}
        x = TWO_PI * 10e6
        both = analytic_coherences(
            pops, SCHEME, FieldDrive(PROBE, LINEAR, TWO_PI * 1e6, detuning=x),
            FieldDrive(COUPLING, SIGMA_MINUS, TWO_PI * 80e6, detuning=x),
            RelaxationRates())
        probe_only = analytic_coherences(
            pops, SCHEME, FieldDrive(PROBE, LINEAR, TWO_PI * 1e6, detuning=x),
            WC80, RelaxationRates())
        assert abs(both[("c1", "a1")]) < 0.2 * abs(probe_only[("c1", "a1")])

    def test_matches_full_solve_for_weak_probe(self):
        # The closed forms drop everything beyond first order in the probe,
        # which presumes the coupling meets an emptied F=2 manifold; a slow
        # transit rate realises that regime. See the acceptance suite for the
        # same check at tighter settings.
        rates = RelaxationRates(gamma_transit=TWO_PI * 1e3)
        probe_rabi = TWO_PI * 1e6
        stark = stark_shifts(WC80, SCHEME)
        idx = level_index(SCHEME)
        for det_mhz in (0.0, -3.0, 3.0, 10.0):
            probe = FieldDrive(PROBE, LINEAR, probe_rabi,
                               detuning=TWO_PI * det_mhz * 1e6)
            h = build_hamiltonian(SCHEME, probe, WC80, stark=stark)
            rho = solve_steady_state(build_liouvillian(SCHEME, h, rates))
            pops = {s: float(rho[i, i].real) for s, i in idx.items()}
            out = analytic_coherences(pops, SCHEME, probe, WC80, rates, stark=stark)
            assert len(out) == 6
            for (upper, lower), value in out.items():
                full = rho[idx[SCHEME.by_label(upper)], idx[SCHEME.by_label(lower)]]
                assert abs(value - full) <= 0.05 * abs(full), (det_mhz, upper, lower)
