"""Superoperator structure, steady-state solves, and the weak-probe forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from eitrot import atom, dynamics, scenarios
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
    FieldDrive,
    build_level_scheme,
    coupling_polarization,
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
    population_block,
    solve_steady_state,
)
from eitrot.scenarios import ScenarioConfig, steady_populations, sweep_coupling_power
from oracles import (
    analytic_coherences,
    dense_steady_state,
    lindblad_rates,
    loop_liouvillian,
    stack_walk_element_count,
)

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


def default_h(probe=WP10, coupling=WC80, **kw):
    return build_hamiltonian(SCHEME, probe, coupling,
                             stark=stark_shifts(coupling, SCHEME), **kw)


def default_lio(rates=RelaxationRates(), probe=WP10, coupling=WC80, **kw):
    return build_liouvillian(SCHEME, default_h(probe, coupling, **kw), rates)


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


class TestPerSchemeCaches:
    """The drive lines and the level index are resolved once per scheme, when
    ``build_level_scheme`` first builds it, and reused: a reused entry must be
    exactly what a newly built scheme resolves for the same inputs."""

    @settings(max_examples=80, deadline=None)
    @given(
        scheme_id=st.sampled_from(SCHEME_IDS),
        probe_polarization=st.sampled_from((LINEAR, SIGMA_MINUS, SIGMA_PLUS)),
        coupling_mhz=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
        probe_mhz=st.floats(-50.0, 50.0),
        b_gauss=st.floats(-30.0, 30.0),
        stark_enabled=st.booleans(),
    )
    def test_reused_entries_match_a_cold_cache(
            self, scheme_id, probe_polarization, coupling_mhz, probe_mhz, b_gauss,
            stark_enabled):
        probe = FieldDrive(PROBE, probe_polarization, TWO_PI * 10e6,
                           detuning=TWO_PI * probe_mhz * 1e6)
        coupling = FieldDrive(COUPLING, coupling_polarization(scheme_id),
                              TWO_PI * coupling_mhz * 1e6)

        def resolve():
            scheme = build_level_scheme(scheme_id)
            stark = stark_shifts(coupling, scheme) if stark_enabled else NO_STARK
            h = build_hamiltonian(scheme, probe, coupling, stark, b_gauss * 1e-4)
            paths = [probe_pathways(scheme, probe, coupling, c, stark)
                     for c in (SIGMA_MINUS, SIGMA_PLUS)]
            # bytes and reprs also tell the signs of zeros apart
            return h.tobytes(), repr(paths), repr(stark), dict(level_index(scheme))

        warm = resolve()
        build_level_scheme.cache_clear()
        assert resolve() == warm

    def test_a_repeated_power_scan_resolves_no_lines(self, monkeypatch):
        misses = []
        resolve = atom._resolve_lines
        monkeypatch.setattr(atom, "_resolve_lines",
                            lambda *args: misses.append(args) or resolve(*args))
        build_level_scheme.cache_clear()
        cfg = ScenarioConfig(points=41, detuning_min=-40 * TWO_PI * 1e6,
                             detuning_max=40 * TWO_PI * 1e6)
        sweep_coupling_power(cfg, [5e-3, 15e-3])
        assert misses
        misses.clear()
        sweep_coupling_power(cfg, [5e-3, 15e-3])
        assert misses == []

    def test_level_index_is_read_only(self):
        idx = level_index(SCHEME)
        with pytest.raises(TypeError):
            idx[SCHEME.sublevels[0]] = 1
        assert idx[SCHEME.sublevels[0]] == 0


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

    @settings(max_examples=40, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.floats(0.0, 40.0),
        coupling_mhz=st.floats(0.0, 150.0),
        detuning_mhz=st.floats(-60.0, 60.0),
        b_gauss=st.floats(-30.0, 30.0),
        gamma_ba_mhz=st.floats(0.0, 3.0),
        gamma_ground_mhz=st.none() | st.floats(0.0, 3.0),
        transit_mhz=st.floats(0.0, 3.0),
    )
    def test_matches_loop_assembly(
        self, scheme_id, polarization, probe_mhz, coupling_mhz, detuning_mhz,
        b_gauss, gamma_ba_mhz, gamma_ground_mhz, transit_mhz,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id, probe_polarization=polarization,
            probe_rabi=probe_mhz * MHZ, coupling_rabi=coupling_mhz * MHZ,
            b_field=b_gauss * 1e-4,
            rates=RelaxationRates(
                gamma_ba=gamma_ba_mhz * MHZ,
                gamma_ground=None if gamma_ground_mhz is None else gamma_ground_mhz * MHZ,
                gamma_transit=transit_mhz * MHZ))
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(detuning_mhz * MHZ),
                              cfg.coupling_drive(), cfg.stark(scheme), cfg.b_field)
        assert np.array_equal(build_liouvillian(scheme, h, cfg.rates),
                              loop_liouvillian(scheme, h, cfg.rates))

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
        assert np.array_equal(rho, rho.conj().T)
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

    def test_probe_census_lies_in_the_population_block(self):
        # the count reads the whole superoperator; keeping only the block's
        # entries, and the probe coherences it starts from, changes nothing
        lio = default_lio()
        block = population_block(lio)
        assert block.size == 85
        n = len(SCHEME.sublevels)
        idx = level_index(SCHEME)
        for component in WP10.components():
            for p in probe_pathways(SCHEME, WP10, WC80, component):
                assert idx[p.excited] * n + idx[p.ground] in block
        inside = np.zeros_like(lio)
        inside[np.ix_(block, block)] = lio[np.ix_(block, block)]
        assert coupled_element_count(inside, SCHEME, WP10, WC80) == 75

    def test_degenerate_system_raises(self):
        # decay links all 13 populations into one block, in which each of the
        # 8 ground populations is stationary without fields or transit
        probe = FieldDrive(PROBE, LINEAR, 0.0)
        coupling = FieldDrive(COUPLING, SIGMA_MINUS, 0.0)
        h = build_hamiltonian(SCHEME, probe, coupling)
        rates = RelaxationRates(gamma_transit=0.0)
        lio = build_liouvillian(SCHEME, h, rates)
        assert population_block(lio).tolist() == list(range(0, 169, 14))
        for solve in (lambda: solve_steady_state(lio),
                      lambda: dynamics._population_record(SCHEME, h, rates, True)):
            with pytest.raises(SteadyStateError, match=r"singular \(null-space "
                               r"dimension 8\)"):
                solve()

    def test_singular_remainder_leaves_populations_unique(self):
        # undamped F=1-F=2 coherences under a sigma-minus probe: the whole
        # superoperator has a 3-dimensional null space, the population block
        # a 1-dimensional one, so the populations and the block are unique
        probe = FieldDrive(PROBE, SIGMA_MINUS, TWO_PI * 10e6)
        lio = default_lio(rates=RelaxationRates(gamma_ba=0.0), probe=probe)
        block = population_block(lio)

        def null_dim(a):
            sv = np.linalg.svd(a, compute_uv=False)
            return int(np.sum(sv < 1e-12 * np.linalg.norm(a)))

        assert null_dim(lio) == 3
        assert null_dim(lio[np.ix_(block, block)]) == 1
        rho = solve_steady_state(lio)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert np.linalg.norm(lio @ rho.reshape(-1)) < 1e-12 * np.linalg.norm(lio)

    def test_non_finite_superoperator_raises_without_diagnosis(self):
        lio = default_lio()
        lio[5, 7] = np.nan
        with pytest.raises(SteadyStateError, match="not finite") as err:
            solve_steady_state(lio)
        assert "null-space dimension" not in str(err.value)

    def test_non_finite_hamiltonian_raises_without_diagnosis(self, monkeypatch):
        # the runtime counterpart of the test above: the sweeps assemble only
        # the population block, and check h and that block
        def nan_hamiltonian(*args):
            h = build_hamiltonian(*args)
            h[5, 7] = np.nan
            return h

        monkeypatch.setattr(scenarios, "build_hamiltonian", nan_hamiltonian)
        cfg = ScenarioConfig(population_policy="per_point")
        with pytest.raises(SteadyStateError, match="not finite") as err:
            scenarios._atom_stage(cfg)
        assert "null-space dimension" not in str(err.value)

    def test_overflowing_solution_raises_without_diagnosis(self):
        # finite two-level system, mapping Hermitian rho to Hermitian rho,
        # whose solution overflows: rho[0, 1] = rho[1, 0] = -1e300 / 1e-10 *
        # rho[0, 0]
        lio = np.zeros((4, 4), dtype=complex)
        lio[1, 0], lio[2, 0] = 1e300, 1e300
        lio[1, 1], lio[2, 2], lio[3, 3] = 1e-10, 1e-10, 1.0
        with pytest.raises(SteadyStateError, match="not finite") as err:
            solve_steady_state(lio)
        assert "null-space dimension" not in str(err.value)
        # and the superoperator is handed back unchanged
        assert lio[0].tolist() == [0, 0, 0, 0]

    def test_block_without_transposes_raises(self):
        # rho[0, 1] is linked to rho[0, 0] but rho[1, 0] is not: the block
        # {rho00, rho01, rho11} cannot hold a Hermitian rho, and it is not
        # made to
        lio = np.zeros((4, 4), dtype=complex)
        lio[1, 0], lio[1, 1], lio[2, 2], lio[3, 3] = 1e300, 1e-10, 1.0, 1.0
        with pytest.raises(SteadyStateError,
                           match="not closed under transposition") as err:
            solve_steady_state(lio)
        assert "null-space dimension" not in str(err.value)

    def test_non_hermitian_map_raises(self):
        # a block closed under transposition whose entries break the
        # symmetry L[flip r, flip c] = conj(L[r, c]) is not solved either
        lio = default_lio()
        n = len(SCHEME.sublevels)
        coherence = next(k for k in population_block(lio) if k % (n + 1))
        lio[coherence, coherence] += 1e-3 * np.abs(lio).max()
        with pytest.raises(SteadyStateError, match="Hermitian rho to Hermitian") as err:
            solve_steady_state(lio)
        assert "null-space dimension" not in str(err.value)

    def test_superoperator_is_not_modified(self):
        lio = default_lio()
        before = lio.copy()
        # the solve works on a copy of the population block, so a read-only
        # input works
        lio.flags.writeable = False
        solve_steady_state(lio)
        assert np.array_equal(lio, before)

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

    @settings(max_examples=50, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.floats(0.1, 40.0),
        coupling_mhz=st.floats(0.0, 150.0),
        coupling_detuning_mhz=st.floats(-20.0, 20.0),
        # near-zero fields leave Zeeman splittings that nearly vanish, where
        # the update's eigenvalues come close to degenerate
        b_gauss=st.sampled_from([0.0, 1e-6, 1e-3, 1.0, 10.0, 25.0]),
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
        self, scheme_id, polarization, probe_mhz, coupling_mhz, coupling_detuning_mhz, b_gauss,
        stark, gamma_mhz, gamma_ca_mhz, gamma_ba_mhz, gamma_ground_mhz,
        transit_mhz, probe_detunings_mhz,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id,
            probe_polarization=polarization,
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

        def h_at(det):
            return build_hamiltonian(scheme, cfg.probe_drive(det), coupling,
                                     stark_shift, cfg.b_field)

        record, rows = dynamics._population_record(
            scheme, h_at(cfg.coupling_detuning), cfg.rates, True)
        pops = dynamics._evaluate(record, dets - cfg.coupling_detuning, rows)
        assert pops.shape == (len(dets), len(scheme.sublevels))
        for k, det in enumerate(dets):
            rho = dense_steady_state(build_liouvillian(scheme, h_at(det), cfg.rates))
            assert pops[k] == pytest.approx(rho.diagonal().real, abs=1e-12)

    def test_defective_update_raises_steady_state_error(self, monkeypatch):
        # a singular eigenvector matrix cannot carry the diagonal update
        def eig(k):
            return np.zeros(len(k), complex), np.ones_like(k)

        monkeypatch.setattr(np.linalg, "eig", eig)
        with pytest.raises(SteadyStateError, match="no eigenvector basis"):
            dynamics._population_record(SCHEME, default_h(), RelaxationRates(), True)

    def test_zero_offsets_give_the_resonance_solve(self):
        record, rows = dynamics._population_record(
            SCHEME, default_h(), RelaxationRates(), True)
        pops = dynamics._evaluate(record, np.zeros(2), rows)
        direct = solve_steady_state(default_lio()).diagonal().real
        assert np.array_equal(pops, [direct, direct])

    def test_a_failing_offset_is_diagnosed_on_its_own_superoperator(self, monkeypatch):
        # with no residual accepted once offset 0 is factored and checked,
        # the first offset fails; its null space must be sized on the block
        # with the probe detuned by that offset
        seen = []
        failure, factor = dynamics._failure, dynamics._factor
        monkeypatch.setattr(dynamics, "_failure",
                            lambda lio, *args: seen.append(lio.copy()) or failure(lio, *args))

        def factor_then_accept_no_residual(*args):
            record = factor(*args)
            monkeypatch.setattr(dynamics, "_RESIDUAL_TOL", 0.0)
            return record

        monkeypatch.setattr(dynamics, "_factor", factor_then_accept_no_residual)
        offset = TWO_PI * 3e6
        record, rows = dynamics._population_record(
            SCHEME, default_h(), RelaxationRates(), True)
        with pytest.raises(SteadyStateError,
                           match=r"exceeds 0e\+00 \(null-space dimension 1\)"):
            dynamics._evaluate(record, np.array([offset]), rows)
        lio = default_lio(probe=replace(WP10, detuning=offset))
        block = population_block(lio)
        [got] = seen
        want = lio[np.ix_(block, block)]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_liouvillian(SCHEME, np.zeros((3, 3)), RelaxationRates()),
     ValueError, "hamiltonian does not match the scheme"),
    (lambda: population_block(np.zeros((3, 3))),
     ValueError, "superoperator must be square with square side"),
    (lambda: FieldDrive("pump", LINEAR, 1.0), ValueError, "unknown field role 'pump'"),
    (lambda: build_level_scheme("sigma_f3"), ValueError, "unknown scheme 'sigma_f3'"),
    (lambda: probe_pathways(SCHEME, WP10, WC80, PI),
     ValueError, "component must be a circular polarization"),
    (lambda: SCHEME.by_label("z9"), KeyError, "no sublevel labelled 'z9'"),
], ids=["liouvillian_shape", "block_side", "field_role", "scheme_id",
        "pathway_component", "sublevel_label"])
def test_library_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestPopulationBlock:
    """The block solve against one dense solve of the whole superoperator."""

    @settings(max_examples=60, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.floats(0.1, 40.0),
        coupling_mhz=st.floats(0.0, 150.0),
        probe_detuning_mhz=st.floats(-60.0, 60.0),
        coupling_detuning_mhz=st.floats(-20.0, 20.0),
        b_gauss=st.floats(0.0, 20.0),
        stark=st.booleans(),
        rates=lindblad_rates(),
    )
    def test_block_solve_matches_dense_solve(
        self, scheme_id, polarization, probe_mhz, coupling_mhz, probe_detuning_mhz,
        coupling_detuning_mhz, b_gauss, stark, rates,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id, probe_polarization=polarization,
            probe_rabi=probe_mhz * MHZ, coupling_rabi=coupling_mhz * MHZ,
            coupling_detuning=coupling_detuning_mhz * MHZ, b_field=b_gauss * 1e-4,
            stark_enabled=stark, rates=rates)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(probe_detuning_mhz * MHZ),
                              cfg.coupling_drive(), cfg.stark(scheme), cfg.b_field)
        lio = build_liouvillian(scheme, h, cfg.rates)
        n = len(scheme.sublevels)
        block = population_block(lio)
        assert set(range(0, n * n, n + 1)) <= set(block.tolist())
        rows, cols = np.divmod(block, n)
        assert np.array_equal(np.sort(cols * n + rows), block)  # rho^T too
        off = np.ones(n * n, dtype=bool)
        off[block] = False
        oracle = dense_steady_state(lio).reshape(-1)
        assert np.abs(oracle[off]).max(initial=0.0) <= 1e-13
        rho = solve_steady_state(lio).reshape(-1)
        assert not rho[off].any()
        assert np.abs(rho[block] - oracle[block]).max() <= 1e-12


    @settings(max_examples=60, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.just(0.0) | st.floats(0.1, 40.0),
        coupling_mhz=st.just(0.0) | st.floats(0.1, 150.0),
        b_gauss=st.sampled_from([0.0, 10.0]),
        stark=st.booleans(),
    )
    def test_element_count_matches_stack_walk(
        self, scheme_id, polarization, probe_mhz, coupling_mhz, b_gauss, stark,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id, probe_polarization=polarization,
            probe_rabi=probe_mhz * MHZ, coupling_rabi=coupling_mhz * MHZ,
            b_field=b_gauss * 1e-4, stark_enabled=stark)
        scheme = cfg.scheme()
        probe, coupling = cfg.probe_drive(0.0), cfg.coupling_drive()
        h = build_hamiltonian(scheme, probe, coupling, cfg.stark(scheme), cfg.b_field)
        lio = build_liouvillian(scheme, h, cfg.rates)
        assert coupled_element_count(lio, scheme, probe, coupling) == \
            stack_walk_element_count(lio, scheme, probe, coupling)


class TestBlockAssembly:
    """The population block that the sweeps assemble on their own, against
    the whole superoperator."""

    @settings(max_examples=80, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.just(0.0) | st.floats(0.1, 40.0),
        coupling_mhz=st.just(0.0) | st.floats(0.1, 150.0),
        coupling_detuning_mhz=st.just(0.0) | st.floats(-20.0, 20.0),
        b_gauss=st.sampled_from([0.0, -30.0, 30.0]) | st.floats(-30.0, 30.0),
        stark=st.booleans(),
        rates=lindblad_rates(),
        no_transit=st.booleans(),
        no_gamma_ba=st.booleans(),
    )
    def test_block_matches_the_whole_assembly(
        self, scheme_id, polarization, probe_mhz, coupling_mhz, coupling_detuning_mhz,
        b_gauss, stark, rates, no_transit, no_gamma_ba,
    ):
        if no_transit:
            rates = replace(rates, gamma_transit=0.0)
        if no_gamma_ba:
            rates = replace(rates, gamma_ba=0.0)
        cfg = ScenarioConfig(
            scheme_id=scheme_id, probe_polarization=polarization,
            probe_rabi=probe_mhz * MHZ, coupling_rabi=coupling_mhz * MHZ,
            coupling_detuning=coupling_detuning_mhz * MHZ, b_field=b_gauss * 1e-4,
            stark_enabled=stark, rates=rates)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(cfg.coupling_detuning),
                              cfg.coupling_drive(), cfg.stark(scheme), cfg.b_field)
        full = build_liouvillian(scheme, h, rates)
        # the tables may come from an earlier h of the same pattern and
        # other rates
        tables = dynamics._block_tables(scheme, h, rates)
        block = tables.index
        assert np.array_equal(block, population_block(full))
        assert np.array_equal(dynamics._assemble(tables, h, rates).view(float),
                              full[np.ix_(block, block)].view(float))

    @settings(max_examples=60, deadline=None)
    @given(
        scheme_id=st.sampled_from(["sigma_f2", "pi_f2", "sigma_f1"]),
        polarization=st.sampled_from([LINEAR, SIGMA_MINUS, SIGMA_PLUS]),
        probe_mhz=st.just(0.0) | st.floats(0.1, 40.0),
        coupling_mhz=st.just(0.0) | st.floats(0.1, 150.0),
        b_gauss=st.sampled_from([0.0, -30.0, 30.0]) | st.floats(-30.0, 30.0),
        stark=st.booleans(),
        rates=lindblad_rates(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_has_real_coordinates(
        self, scheme_id, polarization, probe_mhz, coupling_mhz, b_gauss, stark,
        rates, seed,
    ):
        cfg = ScenarioConfig(
            scheme_id=scheme_id, probe_polarization=polarization,
            probe_rabi=probe_mhz * MHZ, coupling_rabi=coupling_mhz * MHZ,
            b_field=b_gauss * 1e-4, stark_enabled=stark, rates=rates)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(0.0), cfg.coupling_drive(),
                              cfg.stark(scheme), cfg.b_field)
        tables = dynamics._block_tables(scheme, h, rates)
        n = len(scheme.sublevels)
        # the block holds the transpose of each of its elements
        t = tables.real[0]
        rows, cols = np.divmod(tables.index, n)
        assert np.array_equal(tables.index[t], cols * n + rows)
        # and maps Hermitian rho to Hermitian rho, up to the rounding of the
        # decay products gamma a1 a2
        lio = dynamics._assemble(tables, h, rates)
        assert np.abs(lio[np.ix_(t, t)] - lio.conj()).max() <= 1e-15 * np.abs(lio).max()
        # R x holds the real coordinates of L rho, rho the Hermitian rho of x
        x = np.random.default_rng(seed).standard_normal(t.size)
        u = np.flatnonzero(t > np.arange(t.size))
        rho = x.astype(complex)
        rho[u] += 1j * x[t[u]]
        rho[t[u]] = rho[u].conj()
        want = (lio @ rho).real
        want[t[u]] = (lio @ rho)[u].imag
        got = dynamics._real_form(lio, tables.real) @ x
        assert np.abs(got - want).max() <= 1e-13 * np.abs(lio).max() * np.abs(x).max()

    def test_real_kernels_do_the_work(self, monkeypatch):
        # counts, never timings: the per-point sweep diagonalizes one real
        # 30 x 30 update, every system it solves is real, and a
        # fixed-population sweep diagonalizes nothing
        eigs, solves = [], []
        eig, solve = np.linalg.eig, np.linalg.solve

        def counted_eig(a):
            eigs.append((a.dtype.name, a.shape))
            return eig(a)

        def counted_solve(a, b):
            solves.append((a.dtype.name, a.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        scenarios.sweep_probe_detuning(
            ScenarioConfig(b_field=10e-4, population_policy="per_point"))
        assert eigs == [("float64", (30, 30))]
        # x0 on its own, then the update's columns; and no complex solve
        assert [dtype for dtype, shape in solves if shape == (85, 85)] == ["float64"] * 2
        assert {dtype for dtype, shape in solves} == {"float64"}
        eigs.clear()
        solves.clear()
        scenarios.sweep_probe_detuning(ScenarioConfig(b_field=10e-4))
        assert eigs == []
        assert [dtype for dtype, shape in solves if shape == (85, 85)] == ["float64"]

    def test_populations_match_the_whole_superoperator(self):
        offsets = [0.0, TWO_PI * 3e6, -TWO_PI * 11e6]
        h = build_hamiltonian(SCHEME, WP10, WC80, stark_shifts(WC80, SCHEME), 10e-4)
        rates = RelaxationRates()
        record, rows = dynamics._population_record(SCHEME, h, rates, True)
        assert np.array_equal(
            dynamics._evaluate(record, np.array(offsets), rows)[0],
            solve_steady_state(build_liouvillian(SCHEME, h, rates)).diagonal().real)


def block_coordinates(rho, tables):
    """The real coordinates x of ``rho`` on the population block of ``tables``."""
    flat = rho.reshape(-1)[tables.index]
    # x_v = Im rho_u = -Im rho_v
    return np.where(tables.real[3] < 0, -flat.imag, flat.real)


class TestPoleResidueRecord:
    """The record that ``dynamics._factor`` leaves, read by ``_evaluate``."""

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    @pytest.mark.parametrize("b_field", [0.0, 10e-4])
    @pytest.mark.parametrize("detuned", [False, True])
    def test_x0_is_the_block_solve_steady_state_solves(self, scheme_id, b_field, detuned):
        cfg = ScenarioConfig(scheme_id=scheme_id, b_field=b_field,
                             coupling_detuning=TWO_PI * 2e6)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(0.0), cfg.coupling_drive(),
                              cfg.stark(scheme), cfg.b_field)
        record, _ = dynamics._population_record(scheme, h, cfg.rates, detuned)
        rho = solve_steady_state(build_liouvillian(scheme, h, cfg.rates))
        tables = dynamics._block_tables(scheme, h, cfg.rates)
        assert np.array_equal(record.x0, block_coordinates(rho, tables))
        # only a slope that moves rows leaves poles
        assert (record.lam.size > 0) is detuned

    @settings(max_examples=30, deadline=None)
    @given(scheme_id=st.sampled_from(SCHEME_IDS),
           b_gauss=st.sampled_from([0.0, 10.0]) | st.floats(-30.0, 30.0),
           offsets_mhz=st.lists(st.just(0.0) | st.floats(-400.0, 400.0),
                                min_size=1, max_size=300))
    def test_evaluate_at_offset_zero_is_x0(self, scheme_id, b_gauss, offsets_mhz):
        cfg = ScenarioConfig(scheme_id=scheme_id, b_field=b_gauss * 1e-4)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(0.0), cfg.coupling_drive(),
                              cfg.stark(scheme), cfg.b_field)
        offsets = MHZ * np.array(offsets_mhz)
        record, rows = dynamics._population_record(scheme, h, cfg.rates, True)
        pops = dynamics._evaluate(record, offsets, rows)
        assert np.array_equal(pops[offsets == 0], np.tile(record.x0[rows], (
            np.count_nonzero(offsets == 0), 1)))

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    @pytest.mark.parametrize("polarization", [LINEAR, SIGMA_MINUS, SIGMA_PLUS])
    @pytest.mark.parametrize("b_field", [0.0, 10e-4, -30e-4])
    def test_doppler_slope_matches_a_dense_velocity_class(self, scheme_id, polarization,
                                                          b_field):
        # An atom at velocity v sees both beams detuned by -k v (equal
        # wavevectors), which raises the excited levels by k v and leaves the
        # two-photon detuning alone: the slope -i (e_r - e_c), e = 1 on the
        # excited levels, moves the optical coherences only. Measured worst
        # difference over these cases and 10 velocity classes to 1200 MHz:
        # 1.5e-14.
        cfg = ScenarioConfig(scheme_id=scheme_id, probe_polarization=polarization,
                             b_field=b_field)
        scheme = cfg.scheme()
        h = build_hamiltonian(scheme, cfg.probe_drive(0.0), cfg.coupling_drive(),
                              cfg.stark(scheme), cfg.b_field)
        tables = dynamics._block_tables(scheme, h, cfg.rates)
        excited = np.array([s.manifold == atom.EXCITED for s in scheme.sublevels], float)
        slope = (-1j * (excited[:, None] - excited)).reshape(-1)[tables.index]
        if (scheme_id, polarization, b_field) == ("sigma_f2", LINEAR, 0.0):
            assert (np.count_nonzero(slope), slope.size) == (40, 85)
        record = dynamics._factor(dynamics._assemble(tables, h, cfg.rates), slope,
                                  tables.real)
        shifts = MHZ * np.array([0.0, 1.0, -250.0, 600.0, -1200.0])
        xs = dynamics._evaluate(record, shifts, np.arange(tables.index.size))
        for shift, x in zip(shifts, xs):
            lio = build_liouvillian(scheme, h + shift * np.diag(excited), cfg.rates)
            want = block_coordinates(dense_steady_state(lio), tables)
            assert np.abs(x - want).max() <= 1e-12


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

    @pytest.mark.parametrize("b_gauss", [0.0, 10.0])
    def test_matches_full_solve_for_weak_probe(self, b_gauss):
        # The closed forms drop everything beyond first order in the probe,
        # which presumes the coupling meets an emptied F=2 manifold; a slow
        # transit rate realises that regime. See the acceptance suite for the
        # same check at tighter settings.
        b_field = b_gauss * 1e-4
        rates = RelaxationRates(gamma_transit=TWO_PI * 1e3)
        probe_rabi = TWO_PI * 1e6
        stark = stark_shifts(WC80, SCHEME)
        idx = level_index(SCHEME)
        for det_mhz in (0.0, -3.0, 3.0, 10.0):
            probe = FieldDrive(PROBE, LINEAR, probe_rabi,
                               detuning=TWO_PI * det_mhz * 1e6)
            h = build_hamiltonian(SCHEME, probe, WC80, stark=stark, b_field=b_field)
            rho = solve_steady_state(build_liouvillian(SCHEME, h, rates))
            pops = {s: float(rho[i, i].real) for s, i in idx.items()}
            out = analytic_coherences(pops, SCHEME, probe, WC80, rates, stark=stark,
                                      b_field=b_field)
            assert len(out) == 6
            for (upper, lower), value in out.items():
                full = rho[idx[SCHEME.by_label(upper)], idx[SCHEME.by_label(lower)]]
                assert abs(value - full) <= 0.05 * abs(full), (det_mhz, upper, lower)
