"""End-to-end runs of the command-line front end."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import eitrot
from eitrot import cli
from eitrot.atom import TWO_PI
from eitrot.cli import ConfigError, main, parse_config
from eitrot.scenarios import TRACE_CSV_COLUMNS, sweep_probe_detuning, write_csv

SPECTRUM_YAML = """\
scenario: spectrum
scheme: sigma_f2
probe:
  rabi_mhz: 10
  detuning_min_mhz: -40
  detuning_max_mhz: 40
  points: 11
coupling:
  rabi_mhz: 80
medium:
  temperature_c: 55
  density_per_cm3: 1.8e11
"""

EIT_YAML = """\
scenario: eit-peaks
scheme: sigma_f2
magnetic_field_g: 10
probe:
  rabi_mhz: 1
  detuning_min_mhz: -30
  detuning_max_mhz: 30
  points: 301
coupling:
  rabi_mhz: 30
medium:
  temperature_c: 55
  density_per_cm3: 1.0e11
"""


# An in-domain value for every numeric key, alternatives and scan lists
# included, in the key's own unit.
ROUND_TRIP_VALUES = {
    "probe.rabi_mhz": st.floats(0.0, 1e3),
    "probe.power_uw": st.floats(0.0, 1e4),
    "probe.detuning_min_mhz": st.floats(-1e3, -1.0),
    "probe.detuning_max_mhz": st.floats(1.0, 1e3),
    "coupling.rabi_mhz": st.floats(0.0, 1e3),
    "coupling.power_mw": st.floats(0.0, 100.0),
    "coupling.detuning_mhz": st.floats(-100.0, 100.0),
    "medium.temperature_k": st.floats(200.0, 500.0),
    "medium.temperature_c": st.floats(-50.0, 200.0),
    "medium.density_per_m3": st.floats(1e14, 1e19),
    "medium.density_per_cm3": st.floats(1e8, 1e13),
    "medium.cell_length_mm": st.floats(0.1, 1e3),
    "magnetic_field_g": st.floats(-100.0, 100.0),
    "rates.gamma_mhz": st.floats(0.1, 100.0),
    "rates.gamma_ca_mhz": st.floats(0.1, 100.0),
    "rates.gamma_ba_mhz": st.floats(0.0, 100.0),
    "rates.gamma_ground_mhz": st.floats(0.0, 100.0),
    "rates.transit_mhz": st.floats(0.0, 100.0),
    "power_scan.powers_mw": st.lists(st.floats(0.01, 100.0), min_size=1,
                                     max_size=5).map(sorted),
    "temp_scan.temperatures_c": st.lists(st.floats(-50.0, 200.0), min_size=1,
                                         max_size=4),
}


# Values at and beyond the edges of the numeric domains, for the contract fuzz.
EDGE_VALUES = [0, 1, -1, 10, -10, 1e6, -1e6, 1e-300, -1e-300, 1e300, -1e300]
NUMERIC_KEYS = sorted(
    [key for key, (_, factor) in cli._FIELDS.items() if factor is not None]
    + list(cli._ALTERNATIVES))


def write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestConfigParsing:
    def test_unknown_key_suggests_unit_suffix(self):
        with pytest.raises(ConfigError, match="probe.rabi_mhz"):
            parse_config({"scenario": "spectrum", "probe": {"rabi": 10}})

    def test_scenario_required(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config({"scheme": "sigma_f2"})

    def test_rabi_and_power_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config({"scenario": "spectrum",
                          "coupling": {"rabi_mhz": 80, "power_mw": 15}})

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config({"scenario": "spectrum", "scheme": "sigma_f9"})

    def test_defaults_resolve(self):
        spec = parse_config({"scenario": "spectrum"})
        assert spec.basename == "spectrum"
        assert spec.config.scheme_id == "sigma_f2"
        assert spec.config.temperature == pytest.approx(328.15)
        # coupling defaults to the 15 mW anchor
        assert spec.config.coupling_rabi == pytest.approx(
            2 * 3.141592653589793 * 100e6)

    def test_exponent_strings_from_yaml_are_accepted(self):
        # YAML 1.1 reads 1.0e17 as a string; the parser must coerce it
        spec = parse_config({"scenario": "spectrum",
                             "medium": {"density_per_m3": "1.0e17"}})
        assert spec.config.density == pytest.approx(1e17)

    def test_round_trip_covers_every_numeric_key(self):
        numeric = {key for key, (_, factor) in cli._FIELDS.items() if factor is not None}
        assert set(ROUND_TRIP_VALUES) == numeric | set(cli._ALTERNATIVES) | set(cli._SCANS)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), key=st.sampled_from(sorted(ROUND_TRIP_VALUES)))
    def test_resolved_document_round_trips(self, data, key):
        section, _, name = key.rpartition(".")
        value = data.draw(ROUND_TRIP_VALUES[key])
        doc = {"scenario": "spectrum", **({section: {name: value}} if section else {key: value})}
        spec = parse_config(doc)
        again = parse_config(copy.deepcopy(spec.resolved))
        assert again.config == spec.config
        assert again.resolved == spec.resolved
        assert (again.powers_w, again.temperatures_k) == (spec.powers_w, spec.temperatures_k)


class TestMainSpectrum:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "spectrum: 11 points" in out
        csv_text = (tmp_path / "spectrum.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header.startswith("detuning_mhz,")
        assert len(csv_text.splitlines()) == 12
        meta = json.loads((tmp_path / "spectrum.meta.json").read_text())
        assert meta["config"]["scenario"] == "spectrum"
        assert meta["calibration"]["coupling_anchor"]["power_w"] == 15e-3

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path, SPECTRUM_YAML)
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            assert main(["--config", str(cfg), "--outdir", str(tmp_path / sub)]) == 0
        first = (tmp_path / "one" / "spectrum.csv").read_bytes()
        second = (tmp_path / "two" / "spectrum.csv").read_bytes()
        assert first == second

    def test_metadata_config_is_a_fixed_point(self, tmp_path):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "spectrum.meta.json").read_text())
        reparsed = parse_config(meta["config"])
        assert reparsed.config == parse_config(__import__("yaml").safe_load(SPECTRUM_YAML)).config
        assert reparsed.resolved == meta["config"]

    def test_set_overrides_config(self, tmp_path):
        cfg = write(tmp_path, SPECTRUM_YAML)
        code = main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.points=7",
                     "--set", "output_basename=alt"])
        assert code == 0
        meta = json.loads((tmp_path / "alt.meta.json").read_text())
        assert meta["config"]["probe"]["points"] == 7
        assert len((tmp_path / "alt.csv").read_text().splitlines()) == 8


class TestMainErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "scenario: spectrum\nprobe: {rabi: 3}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.yaml"),
                     "--outdir", str(tmp_path)]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # no fields and no transit exchange: every ground population is
        # stationary, so the steady state is not unique
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.rabi_mhz=0", "--set", "coupling.rabi_mhz=0",
                     "--set", "rates.transit_mhz=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: steady-state system is singular")
        # the per-point policy factors the same system at resonance
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.rabi_mhz=0", "--set", "coupling.rabi_mhz=0",
                     "--set", "rates.transit_mhz=0",
                     "--set", "population_policy=per_point"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: steady-state system is singular")
        assert len(err.strip().splitlines()) == 1

    def test_dark_detectors_exit_code(self, tmp_path, capsys):
        # an optically thick cell absorbs the probe entirely: no angle
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "scenario=detector-trace",
                     "--set", "medium.density_per_cm3=1e15"]) == 2
        err = capsys.readouterr().err
        assert err == "error: numeric: difference signals below the indeterminacy floor\n"

    def test_quadrature_section_is_unknown(self, tmp_path, capsys):
        cfg = write(tmp_path, SPECTRUM_YAML + "quadrature:\n  max_panels: 3\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        assert "unknown key 'quadrature'" in capsys.readouterr().err

    def test_cg_overrides_section_is_unknown(self, tmp_path, capsys):
        cfg = write(tmp_path, SPECTRUM_YAML + "cg_overrides:\n  a1->c1: 0.5\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: config: unknown key 'cg_overrides'\n"

    @pytest.mark.parametrize("key, value", [
        ("gamma_ca_mhz", "-3.5"),
        ("gamma_ca_mhz", ".nan"),
        ("gamma_mhz", "0"),
        ("gamma_ba_mhz", "-1"),
        ("gamma_ground_mhz", ".inf"),
        ("transit_mhz", "-0.1"),
    ])
    def test_rate_out_of_domain_exit_code(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"rates.{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key 'rates.{key}' must be finite")
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("medium.density_per_cm3", ".nan"),
        ("medium.cell_length_mm", ".nan"),
        ("coupling.detuning_mhz", ".nan"),
        ("magnetic_field_g", ".inf"),
        ("probe.rabi_mhz", ".nan"),
        ("power_scan.powers_mw", "[.nan, 5]"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config: key '{key}' must be finite\n"
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("medium.density_per_cm3", "-1"),
        ("medium.temperature_k", "-5"),
        ("medium.cell_length_mm", "0"),
        ("probe.power_uw", "-3"),
        ("coupling.power_mw", "-1"),
        ("power_scan.powers_mw", "[-1]"),
        ("power_scan.powers_mw", "[15, 6]"),
        ("temp_scan.temperatures_c", "[-300]"),
        # outside the vapor-pressure curve's range: it would underflow to
        # zero density, or overflow
        ("medium.temperature_k", "10"),
        ("medium.temperature_k", "1e6"),
        ("medium.temperature_k", "5e5"),
        ("temp_scan.temperatures_c", "[55, 1000]"),
    ])
    def test_out_of_domain_number_exit_code(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, "scenario: spectrum\nprobe: {points: 11}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key '{key}' ")
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario, key, value", [
        ("spectrum", "medium.density_per_m3", "1e300"),
        ("detector-trace", "medium.density_per_m3", "1e300"),
        # each scan step takes its density from the vapor curve
        ("temp-scan", "coupling.detuning_mhz", "1e300"),
    ])
    def test_non_finite_result_exit_code(self, tmp_path, capsys, scenario, key, value):
        cfg = write(tmp_path, f"scenario: {scenario}\nprobe: {{points: 5}}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: ")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario, where", [
        ("power-scan", "6 mW"), ("temp-scan", "318.15 K"),
    ])
    def test_scan_without_dispersion_peaks_exit_code(self, tmp_path, capsys,
                                                     scenario, where):
        # the pi-coupling scheme rotates nothing, so no scan step has peaks
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"scenario={scenario}", "--set", "scheme=pi_f2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: numeric: no dispersion peaks at {where}\n"
        assert not list(tmp_path.glob("*.csv"))
        # a spectrum without peaks is a result: it records none
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "scheme=pi_f2"]) == 0
        assert "peaks" not in json.loads((tmp_path / "spectrum.meta.json").read_text())

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--threads", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: unrecognized arguments: --threads")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0


class TestContract:
    @settings(max_examples=300, deadline=None)
    @given(scenario=st.sampled_from(cli.SCENARIOS),
           numbers=st.dictionaries(st.sampled_from(NUMERIC_KEYS),
                                   st.sampled_from(EDGE_VALUES), max_size=4),
           scans=st.dictionaries(st.sampled_from(sorted(cli._SCANS)),
                                 st.lists(st.sampled_from(EDGE_VALUES),
                                          min_size=1, max_size=2), max_size=1))
    def test_every_run_ends_in_a_stated_outcome(self, scenario, numbers, scans):
        # exit 0 with finite CSVs, or exit 1 or 2 with one error line and no CSV
        doc = {"scenario": scenario, "probe": {"points": 5}}
        for key, value in {**numbers, **scans}.items():
            section, _, name = key.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.yaml"
            cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
            outdir = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--config", str(cfg), "--outdir", str(outdir)])
            csvs = sorted(outdir.glob("*.csv"))
            if code == 0:
                assert csvs
                for path in csvs:
                    cells = {cell for line in path.read_text().splitlines()[1:]
                             for cell in line.split(",")}
                    assert not cells & {"nan", "inf", "-inf"}, path.name
            else:
                assert code in (1, 2)
                assert len(err.getvalue().splitlines()) == 1
                assert not csvs


class TestOtherScenarios:
    def test_detector_trace_rows(self, tmp_path):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "scenario=detector-trace"]) == 0
        rows = (tmp_path / "detector_trace.csv").read_text().splitlines()
        assert rows[0] == "detuning_mhz,i_d1,i_d2,i_d3,i_d4,phi_deg"
        assert len(rows) == 1 + 11
        trace = [[float(x) for x in r.split(",")] for r in rows[1:]]
        spectrum = [[float(x) for x in r.split(",")] for r in
                    (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
        for t, s in zip(trace, spectrum):
            assert t[0] == s[0]
            assert t[5] == pytest.approx(s[-1], abs=1e-6)

    def test_default_detector_trace_angle_is_the_plain_arctangent(self, tmp_path):
        cfg = write(tmp_path, "scenario: detector-trace\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        result = sweep_probe_detuning(parse_config({"scenario": "detector-trace"}).config)
        s = result.signals
        phi = np.degrees(0.5 * np.arctan2(-(s.d3 - s.d4), -(s.d1 - s.d2)))
        write_csv(tmp_path / "want.csv", TRACE_CSV_COLUMNS, zip(
            result.detunings / TWO_PI / 1e6,
            s.d1 / s.i0, s.d2 / s.i0, s.d3 / s.i0, s.d4 / s.i0, phi))
        assert ((tmp_path / "detector_trace.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_eit_peaks_counts(self, tmp_path, capsys):
        cfg = write(tmp_path, EIT_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eit-peaks: sigma_minus=3 sigma_plus=2" in out
        meta = json.loads((tmp_path / "eit_peaks.meta.json").read_text())
        assert meta["peak_counts"] == {"sigma_minus": 3, "sigma_plus": 2}

    def test_populations_stdout(self, tmp_path, capsys):
        cfg = write(tmp_path, "scenario: populations\ncoupling: {rabi_mhz: 80}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("populations: a1=")
        rows = (tmp_path / "populations.csv").read_text().splitlines()
        assert rows[0] == "sublevel,population"
        assert len(rows) == 9  # eight ground sublevels

    def test_power_scan_rows(self, tmp_path):
        text = SPECTRUM_YAML.replace("scenario: spectrum", "scenario: power-scan")
        text += "power_scan:\n  powers_mw: [6, 10, 15]\n"
        cfg = write(tmp_path, text, "scan.yaml")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.points=61"]) == 0
        rows = (tmp_path / "power_scan.csv").read_text().splitlines()
        assert rows[0].startswith("power_mw,rabi_mhz,")
        assert len(rows) == 4


def test_import_leaves_out_unused_scipy_modules():
    # scipy.signal and scipy.stats would add about a second and 50 MB to
    # every start-up; only scipy.special and scipy.linalg are used at run time
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eitrot.cli; "
            "print(' '.join(sorted(sys.modules)))")
    src = Path(eitrot.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "eitrot.cli" in loaded
    assert "scipy.special" in loaded
    assert not {"scipy.signal", "scipy.stats"} & loaded
