"""End-to-end runs of the command-line front end."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import eitrot
from eitrot import cli, spectra
from eitrot.atom import TWO_PI
from eitrot.cli import TRACE_CSV_COLUMNS, ConfigError, main, parse_config, write_csv
from eitrot.detection import JonesVector, detector_intensities, propagate_cell
from eitrot.scenarios import sweep_probe_detuning

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


# Valid documents for the raw-text property: every scenario, small scans.
RAW_BASES = [
    "scenario: spectrum\nscheme: sigma_f2\nmagnetic_field_g: 1\nprobe:\n"
    "  rabi_mhz: 10\n  detuning_min_mhz: -40\n  detuning_max_mhz: 40\n"
    "coupling:\n  rabi_mhz: 80\nmedium:\n  temperature_c: 55\n",
    "scenario: detector-trace\ncoupling: {power_mw: 15, detuning_mhz: 2}\n",
    "scenario: power-scan\npower_scan:\n  powers_mw: [1, 10]\n",
    "scenario: temp-scan\ntemp_scan:\n  temperatures_c: [40, 60]\n",
    "scenario: eit-peaks\nrates:\n  gamma_ba_mhz: 0.01\n  transit_mhz: 0.1\n",
    "scenario: populations\nmedium: {density_per_cm3: 1.0e11, cell_length_mm: 75}\n",
]
# What may stand where a number goes: a string, a list, a mapping, integers
# beyond the float range and beyond Python's digit limit, an impossible
# date, deep nesting, and the edges of the numeric domains.
RAW_VALUES = ["fast", "[1, 2]", "{a: 1}", "7" * 400, "7" * 5000, "2020-13-45",
              "[" * 500, "{a: " * 300, "~", ".nan", "-.inf", "1e999", "-1", "0"]
RAW_KEYS = ["colour: 1", "probe.points: 3", "  unknown_mhz: 2", "rates: {gamma: 1}",
            "probe: {rabi: 3}", "scenario: spectrum", "probe: {points: 7}"]
_NUMBER = re.compile(rb"(?<=[:\[,] )-?[0-9][0-9.e]*|(?<=\[)-?[0-9][0-9.e]*")


def _truncate(draw, data):
    return data[:draw(st.integers(0, len(data)))]


def _flip_byte(draw, data):
    if not data:
        return data
    i = draw(st.integers(0, len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]


def _insert_bytes(draw, data):
    i = draw(st.integers(0, len(data)))
    return data[:i] + draw(st.binary(min_size=1, max_size=3)) + data[i:]


def _duplicate_line(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[:i + 1] + lines[i:])


def _tab_indent(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[:i] + [b"\t" + lines[i].lstrip(b" ")] + lines[i + 1:])


def _bad_number(draw, data):
    numbers = list(_NUMBER.finditer(data))
    if not numbers:
        return data
    m = draw(st.sampled_from(numbers))
    return data[:m.start()] + draw(st.sampled_from(RAW_VALUES)).encode() + data[m.end():]


def _add_key(draw, data):
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines)))
    return b"\n".join(lines[:i] + [draw(st.sampled_from(RAW_KEYS)).encode()] + lines[i:])


RAW_MUTATIONS = [_truncate, _flip_byte, _insert_bytes, _duplicate_line, _tab_indent,
                 _bad_number, _add_key]


@st.composite
def raw_configs(draw):
    """A valid document's text, mutated one to three times."""
    data = draw(st.sampled_from(RAW_BASES)).encode()
    for _ in range(draw(st.integers(1, 3))):
        data = draw(st.sampled_from(RAW_MUTATIONS))(draw, data)
    return data


@st.composite
def raw_overrides(draw):
    """A ``--set`` string: a key and a bad value, or a valid override mutated."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(NUMERIC_KEYS + ["scenario", "probe", "colour",
                                                   "probe.x.y", "probe..points"]))
        return f"{key}={draw(st.sampled_from(RAW_VALUES + ['{points: 5, points: 7}']))}"
    data = draw(st.sampled_from([b"probe.rabi_mhz=3", b"coupling={rabi_mhz: 20}",
                                 b"temp_scan.temperatures_c=[50]"]))
    data = draw(st.sampled_from(RAW_MUTATIONS))(draw, data)
    # a command line passes non-UTF-8 bytes to Python as lone surrogates
    return data.decode("utf-8", "surrogateescape")


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

    def test_basename_keeps_its_dots(self, tmp_path):
        cfg = write(tmp_path, SPECTRUM_YAML)
        for name in ("run.v1", "run.v2"):
            assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                         "--set", f"output_basename={name}"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "run.v1.csv", "run.v1.meta.json", "run.v2.csv", "run.v2.meta.json"]

    def test_dense_vapor_is_a_result(self, tmp_path, capsys):
        # phi comes from n = Re sqrt(1 + chi), unwrapped, so it stays finite
        # however far the probe rotates: over 1e6 deg at 1e16 cm^-3
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "medium.density_per_cm3=1e16"]) == 0
        table = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        assert table.shape == (11, 9)
        assert np.isfinite(table).all()
        assert np.abs(table[:, -1]).max() > 1e6


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

    def test_config_that_is_not_utf8_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(b"scenario: spectrum # \xff\xfe\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: config: cannot read config: 'utf-8' codec can't decode byte"
            " 0xff in position 21: invalid start byte\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("text, problem", [
        ("scenario: [1, 2\n", "expected ',' or ']', but got '<stream end>'"
                              " at line 2, column 1"),
        ("? [1]\n: 2\n", "found unhashable key at line 1, column 3"),
        # a reader error has no line and column
        ("scenario: spec\x01trum\n",
         "unacceptable character #x0001: special characters are not allowed"),
        # YAML 1.2 requires unique keys; the first probe would be dropped
        ("scenario: spectrum\nprobe: {points: 5}\nprobe: {rabi_mhz: 3}\n",
         "found duplicate key 'probe' at line 3, column 1"),
    ], ids=["unclosed-flow-sequence", "unhashable-key", "control-character",
            "duplicate-key"])
    def test_malformed_yaml_is_one_line(self, tmp_path, capsys, text, problem):
        cfg = write(tmp_path, text)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: config: malformed YAML: {problem}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_merge_key_may_supply_a_key_the_mapping_gives(self, tmp_path, capsys):
        cfg = write(tmp_path, "scenario: spectrum\nprobe:\n"
                              "  <<: {points: 5, rabi_mhz: 2}\n  points: 7\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        probe = json.loads((tmp_path / "spectrum.meta.json").read_text())["config"]["probe"]
        assert (probe["points"], probe["rabi_mhz"]) == (7, 2)

    @pytest.mark.parametrize("text, override, key", [
        ("scenario: spectrum\n", "probe.a\nb=1", "probe.a\\nb"),
        ('scenario: spectrum\n"a\\u2028b\\x85": 1\n', "probe.points=5", "a\\u2028b\\x85"),
    ], ids=["newline-in-an-override", "line-separators-in-a-key"])
    def test_error_that_quotes_a_line_break_is_one_line(self, tmp_path, capsys,
                                                        text, override, key):
        cfg = write(tmp_path, text)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "--set", override]) == 1
        assert capsys.readouterr().err == f"error: config: unknown key '{key}'\n"

    @pytest.mark.parametrize("value, problem", [
        # PyYAML's scanner is quadratic in the depth: 2000 takes over a second
        ("[" * 1000, "maximum recursion depth exceeded"),
        pytest.param("7" * 5000, "Exceeds the limit", marks=pytest.mark.skipif(
            not hasattr(sys, "set_int_max_str_digits"),
            reason="no limit on integer string conversion")),
        ("2020-13-45", "month must be in 1..12"),
    ], ids=["deep-nesting", "5000-digit-integer", "impossible-date"])
    def test_unloadable_value_is_one_line(self, tmp_path, capsys, value, problem):
        # the loader's RecursionError and ValueError end as malformed YAML,
        # from the file and from an override alike
        cfg = write(tmp_path, f"scenario: spectrum\nmagnetic_field_g: {value}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: malformed YAML: {problem}")
        assert err.count("\n") == 1 and err.endswith("\n")
        ok = write(tmp_path, "scenario: spectrum\n", "ok.yaml")
        item = f"magnetic_field_g={value}"
        assert main(["--config", str(ok), "--outdir", str(tmp_path / "out"),
                     "--set", item]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: override '{item}': malformed YAML: {problem}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert sorted(tmp_path.iterdir()) == [ok, cfg]

    @pytest.mark.parametrize("text, message", [
        ("- 1\n- 2\n", "configuration must be a mapping"),
        ("scenario: spectrum\nprobe.points: 11\n", "unknown key 'probe.points'"),
        ("scenario: spectrum\nprobe: 3\n", "key 'probe' must be a mapping"),
        ("scenario: spectrum\nprobe: {rabi_mhz: fast}\n",
         "key 'probe.rabi_mhz' must be a number"),
        ("scenario: rotate\n", "unknown scenario 'rotate'; choose from spectrum,"
                               " power-scan, temp-scan, eit-peaks, detector-trace,"
                               " populations"),
        ("scenario: spectrum\nstark_shifts: 1\n", "key 'stark_shifts' must be a boolean"),
        ("scenario: power-scan\npower_scan: {powers_mw: []}\n",
         "key 'power_scan.powers_mw' must be a non-empty number list"),
        # a null value is absent: here the required scenario
        ("scenario: ~\nprobe: {points: 11}\n", "missing required key 'scenario'"),
    ], ids=["not-a-mapping", "dotted-top-level-key", "section-not-a-mapping",
            "not-a-number", "unknown-scenario", "not-a-boolean", "empty-scan-list",
            "null-scenario"])
    def test_config_error_line(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, text)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_null_value_in_a_section_is_absent(self, tmp_path, capsys):
        # were the null rabi_mhz given, it would over-specify the probe drive
        cfg = write(tmp_path, "scenario: spectrum\n"
                              "probe: {rabi_mhz: ~, power_uw: 5, points: 3}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((tmp_path / "spectrum.meta.json").read_text())
        assert meta["config"]["probe"]["rabi_mhz"] == pytest.approx(
            cli.rabi_from_power(5e-6, cli.PROBE) / cli.MHZ, rel=1e-12)

    def test_run_in_process_traps_floating_point_failures(self, tmp_path, capsys):
        # the exit-2 failure of main comes from run itself, so an in-process
        # caller meets it too, and no file is written
        cfg = write(tmp_path, "scenario: spectrum\nprobe: {points: 5}\n"
                              "coupling: {detuning_mhz: 1e300}\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "cli")]) == 2
        assert capsys.readouterr().err == ("error: numeric: floating-point failure:"
                                           " overflow encountered in dot\n")
        spec = parse_config(yaml.safe_load(cfg.read_text()))
        with pytest.raises(FloatingPointError, match="overflow encountered in dot"):
            cli.run(spec, tmp_path / "lib")
        assert list((tmp_path / "lib").iterdir()) == []
        assert list((tmp_path / "cli").iterdir()) == []

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # no fields and no transit exchange: each of the eight ground
        # populations is stationary on its own, so the population block
        # (decay links all 13 populations into one) has a null space of
        # dimension 8 and the steady state is not unique
        cfg = write(tmp_path, SPECTRUM_YAML)
        singular = ("error: numeric: steady-state system is singular (null-space "
                    "dimension 8); no unique stationary density matrix\n")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.rabi_mhz=0", "--set", "coupling.rabi_mhz=0",
                     "--set", "rates.transit_mhz=0"]) == 2
        assert capsys.readouterr().err == singular
        # the per-point policy factors the same system at resonance
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "probe.rabi_mhz=0", "--set", "coupling.rabi_mhz=0",
                     "--set", "rates.transit_mhz=0",
                     "--set", "population_policy=per_point"]) == 2
        assert capsys.readouterr().err == singular

    def test_singular_remainder_with_unique_populations_runs(self, tmp_path, capsys):
        # undamped F=1-F=2 coherences at 0 G: the whole superoperator has a
        # null space of dimension 3, but the extra null vectors lie off the
        # population block, so the populations are unique and the run succeeds
        # (an even point count keeps the undamped two-photon resonance off
        # the grid)
        cfg = write(tmp_path, EIT_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", "rates.gamma_ba_mhz=0", "--set", "magnetic_field_g=0",
                     "--set", "probe.points=100"]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((tmp_path / "eit_peaks.meta.json").read_text())
        assert set(meta["peak_counts"]) == {"sigma_minus", "sigma_plus"}

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

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "3\n"])
    @pytest.mark.parametrize("override", ["probe.points=5", "scenario=spectrum"])
    def test_override_on_a_document_that_is_not_a_mapping(
            self, tmp_path, capsys, text, override):
        cfg = write(tmp_path, text)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", override]) == 1
        assert capsys.readouterr().err == \
            "error: config: configuration must be a mapping\n"

    @pytest.mark.parametrize("override", [
        "probe.rabi_mhz", "probe..rabi_mhz=1", "=1", "probe.rabi_mhz=[1", "scenario.x=1",
        "probe={points: 5, points: 7}"])
    def test_malformed_override_exit_code(self, tmp_path, capsys, override):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: override '{override}'")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [cfg]

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
        # an integer beyond the float range
        pytest.param("magnetic_field_g", "7" * 400, id="magnetic_field_g-400-digits"),
        pytest.param("probe.rabi_mhz", "-" + "7" * 400, id="probe.rabi_mhz-400-digits"),
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

    @pytest.mark.parametrize("name", ["''", ".", "..", "a/b", "../run", "run/",
                                      '"a\\0b"'])
    def test_basename_with_a_directory_exit_code(self, tmp_path, capsys, name):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "--set", f"output_basename={name}"]) == 1
        assert capsys.readouterr().err == ("error: config: key 'output_basename' "
                                           "must be a file name without a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    @pytest.mark.parametrize("name", ["[1, 2]", "12"])
    def test_basename_that_is_not_a_string_exit_code(self, tmp_path, capsys, name):
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"),
                     "--set", f"output_basename={name}"]) == 1
        assert capsys.readouterr().err == (
            "error: config: key 'output_basename' must be a string\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    @pytest.mark.parametrize("outdir", ["taken", "taken/out"])
    def test_unusable_outdir_exit_code(self, tmp_path, capsys, outdir):
        # a file where the directory, or one of its parents, should be
        cfg = write(tmp_path, SPECTRUM_YAML)
        (tmp_path / "taken").write_text("")
        assert main(["--config", str(cfg), "--outdir", str(tmp_path / outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot write output: ")
        assert len(err.splitlines()) == 1

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "sweep_probe_detuning", exhausted)
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: numeric: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("points, code, err", [
        (2**59 - 1, 2, "error: numeric: out of memory: "),
        *((points, 1, f"error: config: key 'probe.points' must be at most {2**59 - 1}")
          for points in (2**59, 2**60, 2**63 - 1, 10**20)),
    ], ids=["2^59-1", "2^59", "2^60", "2^63-1", "10^20"])
    def test_grid_too_long_exit_code(self, tmp_path, capsys, points, code, err):
        # every such float64 grid exceeds the 128 TiB address space, so none
        # is allocated: the longest grid numpy can describe runs out of
        # memory, and a longer one is refused before the run
        cfg = write(tmp_path, SPECTRUM_YAML)
        assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                     "--set", f"probe.points={points}"]) == code
        got = capsys.readouterr().err
        assert got.startswith(err)
        assert len(got.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("policy, code", [("fixed", 0), ("per_point", 2)])
    def test_negative_population_exit_code(self, tmp_path, capsys, policy, code):
        # rates outside the Lindblad domain (gamma_ca below gamma/2): at
        # resonance the populations are positive, but 60 MHz off it b5
        # reaches -3.3e-3, so the per-point steady state there is not a
        # density matrix and the run writes nothing
        cfg = write(tmp_path, f"""\
scenario: spectrum
population_policy: {policy}
probe: {{rabi_mhz: 25.84, detuning_min_mhz: -100, detuning_max_mhz: 100, points: 201}}
coupling: {{rabi_mhz: 136.15}}
rates: {{gamma_ca_mhz: 0.221, gamma_ba_mhz: 2.867, transit_mhz: 0.138,
        gamma_ground_mhz: 0.624}}
""")
        outdir = tmp_path / "out"
        assert main(["--config", str(cfg), "--outdir", str(outdir)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("error: numeric: steady state is not a density matrix: "
                           "population b5 = -3.3e-03 at 60 MHz\n")
            assert not list(outdir.iterdir())
        else:
            assert err == ""

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
        # exit 0 with finite CSVs, or exit 1 or 2 with one error line and no
        # output directory or an empty one
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
                assert not outdir.exists() or not list(outdir.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(text=raw_configs(), overrides=st.lists(raw_overrides(), max_size=2))
    @example(text=b"scenario: spectrum\nprobe: {points: 5}\nprobe: {rabi_mhz: 3}\n",
             overrides=[])
    @example(text=RAW_BASES[0].encode(), overrides=["probe={points: 5, points: 7}"])
    @example(text=b"scenario: spectrum\nmagnetic_field_g: " + b"[" * 1000, overrides=[])
    @example(text=b"scenario: spectrum\nmagnetic_field_g: " + b"7" * 5000, overrides=[])
    @example(text=b"scenario: spectrum\nmagnetic_field_g: " + b"7" * 400, overrides=[])
    @example(text=RAW_BASES[0].encode(), overrides=["probe.rabi_mhz=" + "7" * 400])
    @example(text=b"scenario: spectrum\nmagnetic_field_g: 2020-13-45\n", overrides=[])
    @example(text=RAW_BASES[0].encode(), overrides=["magnetic_field_g=2020-13-45"])
    def test_every_raw_text_ends_in_a_stated_outcome(self, text, overrides):
        # exit 0 in silence, or exit 1 or 2 with one error line and no
        # output directory or an empty one; the grid stays tiny
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.yaml"
            cfg.write_bytes(text)
            outdir = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                # "--set=" keeps an item that starts with "-" a value
                code = main(["--config", str(cfg), "--outdir", str(outdir)]
                            + [f"--set={item}" for item in overrides]
                            + ["--set", "probe.points=5"])
            err = err.getvalue()
            if code == 0:
                assert err == ""
            else:
                assert code in (1, 2), err
                assert len(err.splitlines()) == 1 and err.endswith("\n"), err
                assert err.startswith(("error: config:", "error: numeric:")), err
                assert not outdir.exists() or not list(outdir.iterdir())


class TestDeterminism:
    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_identical_runs_write_identical_files(self, tmp_path, monkeypatch,
                                                  scenario):
        # each output directory holds exactly the files that run returned
        returned = []
        run = cli.run

        def recorded(*args, **kwargs):
            returned.append(run(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "run", recorded)
        cfg = write(tmp_path, f"scenario: {scenario}\nprobe:\n  points: 41\n")
        for name in ("one", "two"):
            assert main(["--config", str(cfg), "--outdir", str(tmp_path / name)]) == 0
            assert sorted(returned[-1]) == sorted((tmp_path / name).iterdir())
        one = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert one == sorted(p.name for p in (tmp_path / "two").iterdir())
        assert any(name.endswith(".csv") for name in one)
        assert any(name.endswith(".meta.json") for name in one)
        for name in one:
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes()), name


class TestVerbose:
    @pytest.mark.parametrize("scenario, lines", [
        ("spectrum", ["sweeping 41 detuning points"]),
        ("detector-trace", ["sweeping 41 detuning points"]),
        ("power-scan", ["scanning 5 powers over 41 detuning points"]),
        ("temp-scan", ["scanning 3 temperatures over 41 detuning points"]),
        ("eit-peaks", []),
        ("populations", []),
    ])
    def test_verbose_writes_progress_to_stderr_only(self, tmp_path, capsys,
                                                    scenario, lines):
        cfg = write(tmp_path, f"scenario: {scenario}\nprobe:\n  points: 41\n")
        runs = []
        for flags in ([], ["-v"]):
            outdir = tmp_path / ("verbose" if flags else "quiet")
            assert main(["--config", str(cfg), "--outdir", str(outdir), *flags]) == 0
            out, err = capsys.readouterr()
            runs.append((out, err, {p.name: p.read_bytes() for p in outdir.iterdir()}))
        (quiet_out, quiet_err, quiet_files), (out, err, files) = runs
        assert quiet_err == ""
        assert err.splitlines() == lines
        assert out == quiet_out
        assert files == quiet_files


def snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestAllOrNone:
    def test_failed_write_leaves_the_outdir_as_it_was(self, tmp_path, capsys,
                                                     monkeypatch):
        # a temp-scan rerun whose third file (the last per-temperature
        # table) cannot be written replaces none of the earlier run's files
        cfg = write(tmp_path, "scenario: temp-scan\nprobe:\n  points: 41\n")
        outdir = tmp_path / "out"
        assert main(["--config", str(cfg), "--outdir", str(outdir)]) == 0
        (outdir / "notes.txt").write_text("kept\n")
        before = snapshot(outdir)
        calls = []

        def failing(path, columns, table):
            calls.append(Path(path).name)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write_csv(path, columns, table)

        monkeypatch.setattr(cli, "write_csv", failing)
        capsys.readouterr()
        assert main(["--config", str(cfg), "--outdir", str(outdir),
                     "--set", "probe.points=61"]) == 1
        assert capsys.readouterr() == (
            "", "error: config: cannot write output: [Errno 28] No space left on device\n")
        assert snapshot(outdir) == before
        assert calls == [f".temp_scan_t{i}.csv.{os.getpid()}.tmp" for i in (1, 2, 3)]

    @pytest.mark.parametrize("scenario, directory", [
        ("spectrum", "spectrum.meta.json"), ("temp-scan", "temp_scan_t3.csv")])
    def test_directory_at_a_target_leaves_the_outdir_as_it_was(
            self, tmp_path, capsys, scenario, directory):
        # a directory where a rerun would replace or remove a file stops it
        # before any file is replaced, and its temporaries are removed
        cfg = write(tmp_path, f"scenario: {scenario}\nprobe:\n  points: 41\n")
        outdir = tmp_path / "out"
        args = ["--config", str(cfg), "--outdir", str(outdir)]
        assert main(args) == 0
        (outdir / directory).unlink()
        (outdir / directory).mkdir()
        before = {p.name: p.is_dir() or p.read_bytes() for p in outdir.iterdir()}
        capsys.readouterr()
        assert main([*args, "--set", "probe.points=61",
                     "--set", "temp_scan.temperatures_c=[45, 55]"]) == 1
        assert capsys.readouterr() == ("", "error: config: cannot write output: "
                                       f"[Errno 21] Is a directory: '{outdir / directory}'\n")
        assert {p.name: p.is_dir() or p.read_bytes() for p in outdir.iterdir()} == before

    def test_shorter_temp_scan_rerun_leaves_exactly_its_tables(self, tmp_path):
        # a temp-scan over fewer temperatures removes the earlier scan's
        # extra tables; other scenarios and other names remove nothing
        cfg = write(tmp_path, "scenario: temp-scan\nprobe:\n  points: 41\n")
        outdir = tmp_path / "out"
        args = ["--config", str(cfg), "--outdir", str(outdir)]
        assert main(args) == 0
        others = ["temp_scan_t04.csv", "temp_scan_t4.csv.bak", "temp_scanx_t4.csv"]
        for name in others:
            (outdir / name).write_text("kept\n")
        assert main([*args, "--set", "scenario=spectrum", "--set", "output_basename=temp_scan",
                     "--set", "temp_scan.temperatures_c=[45]"]) == 0
        assert (outdir / "temp_scan_t3.csv").exists()
        assert main([*args, "--set", "temp_scan.temperatures_c=[45, 55]"]) == 0
        meta = json.loads((outdir / "temp_scan.meta.json").read_text())
        assert meta["per_temperature_files"] == ["temp_scan_t1.csv", "temp_scan_t2.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            ["temp_scan.csv", "temp_scan.meta.json", *meta["per_temperature_files"], *others])

    @pytest.mark.parametrize("target", ["sweep_probe_detuning", "write_metadata"])
    def test_interrupt_exit_code(self, tmp_path, capsys, monkeypatch, target):
        # Ctrl-C during the sweep, or after the table is written under its
        # temporary name, ends the run with one line and leaves no file
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, target, interrupted)
        cfg = write(tmp_path, SPECTRUM_YAML)
        outdir = tmp_path / "out"
        assert main(["--config", str(cfg), "--outdir", str(outdir)]) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert not list(outdir.iterdir())

    def test_closed_stdout_exit_code(self, tmp_path):
        # the summary line is printed and flushed only once every file is in
        # place, so a reader that has gone costs no file and reports no
        # error; stdout is block-buffered, as it is for a pipe by default
        cfg = write(tmp_path, SPECTRUM_YAML)
        outdir = tmp_path / "out"
        src = Path(eitrot.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, written = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "eitrot.cli", "--config", str(cfg),
                 "--outdir", str(outdir)], stdout=written, stderr=subprocess.PIPE,
                text=True, env={**env, "PYTHONPATH": str(src)})
        finally:
            os.close(written)
        assert (done.returncode, done.stderr) == (141, "")
        assert sorted(p.name for p in outdir.iterdir()) == [
            "spectrum.csv", "spectrum.meta.json"]


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
        s = detector_intensities(
            propagate_cell(JonesVector.linear(), result.pair, result.medium), 1.0)
        phi = np.degrees(0.5 * np.arctan2(-(s.d3 - s.d4), -(s.d1 - s.d2)))
        write_csv(tmp_path / "want.csv", TRACE_CSV_COLUMNS, np.column_stack((
            result.detunings / TWO_PI / 1e6,
            s.d1, s.d2, s.d3, s.d4, phi)))
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


def _near(values):
    """Each value with its neighbours one ulp below and above."""
    v = np.asarray(values, dtype=float)
    return [*v, *np.nextafter(v, -np.inf), *np.nextafter(v, np.inf)]


class TestWriteCsv:
    # edge values beside hypothesis's own draws, which include nan and inf
    EDGES = [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
             1e300, -1e300, 1e-300, -1e-300]
    # where the vectorized format decides: 9th-digit ties, exact and not,
    # carries to 1e9, powers of ten (where log10 may be one off), the
    # switches between fixed and exponent notation at e = -5/-4 and 8/9,
    # and the ends of the exact powers of ten (|8 - e| <= 22)
    DECISIONS = [
        *_near([100000000.5, 100000001.5, 12345678.25, 1234567.125, 1000000005.0,
                float(2**53 + 2), 999999999.5, 9999999995.0, 999999999.6,
                9.9999999996, 0.99999999996, 9.999999995e-5, 9.9999999996e-5,
                1e-5, 0.0001, 99999999.9, 999999999.0, 999999999.4, 1e9,
                9.999999995e22, 9.9999999995e30, 9.99999999e-15, 1.5e100, -1e-100]),
        *_near(10.0 ** np.arange(-25, 40)),
        *(float(f"{m}5e{k}") for m, k in ((123456789, -3), (100000000, 20), (999999999, -12),
                                          (314159265, 2), (271828182, -12))),
        -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1.7976931348623157e308,
    ]

    @staticmethod
    def _want(columns, table) -> bytes:
        # the per-cell oracle
        return (",".join(columns) + "\n" + "".join(
            ",".join(f"{float(x):.9g}" for x in row) + "\n" for row in table)).encode()

    def _check(self, table):
        columns = [f"c{j}" for j in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/table.csv"
            write_csv(path, columns, table)
            with open(path, "rb") as fh:
                assert fh.read() == self._want(columns, table)

    # cutoff 0 takes every table through the vectorized formatter
    @pytest.mark.parametrize("cutoff", [cli._VECTOR_CELLS, 0])
    @settings(max_examples=300, deadline=None)
    @given(table=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 9)),
                        elements=st.floats() | st.sampled_from(EDGES + DECISIONS)))
    def test_bytes_match_the_per_cell_format(self, cutoff, table):
        with mock.patch.object(cli, "_VECTOR_CELLS", cutoff):
            self._check(table)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 1500), st.integers(1, 9)),
           picks=st.lists(st.sampled_from(EDGES + DECISIONS) | st.floats(), min_size=1,
                          max_size=40),
           share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_large_tables_match_the_per_cell_format(self, shape, picks, share, seed):
        # spectrum-like cells of any exponent, a share of them replaced by
        # the drawn values; from _VECTOR_CELLS cells on, in blocks of whole rows
        rng = np.random.default_rng(seed)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 40, shape)
        table = np.where(rng.random(shape) < share, rng.choice(picks, shape), table)
        blocks = math.ceil(shape[0] / (spectra._STACK_ELEMENTS // shape[1]))
        with mock.patch.object(cli, "_format_cells",
                               wraps=cli._format_cells) as vectorized:
            self._check(table)
        vector = table.size >= cli._VECTOR_CELLS
        assert vectorized.call_count == (blocks if vector else 0)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_an_exponent_one_off_is_corrected(self, shift):
        # log10 is one off at most next to a power of ten, where either
        # exponent gives the same digits; shifted for every cell, the
        # exponent must be corrected from the scaled value
        rng = np.random.default_rng(0)
        table = np.reshape([*self.DECISIONS, *(rng.standard_normal(300) * 10.0 **
                                               rng.integers(-20, 35, 300))], (-1, 1))
        log10 = np.log10
        with mock.patch.object(np, "log10", lambda a: log10(a) + shift), \
                mock.patch.object(cli, "_VECTOR_CELLS", 0):
            self._check(table)

    def test_lookup_tables_are_their_string_forms(self):
        quads = [b"%04d" % i for i in range(10000)]
        words = cli._DIGIT_WORDS.view(np.uint8).reshape(-1, 8)
        assert [row.tobytes() for row in words[:, ::2]] == quads
        assert not words[:, 1::2].any()
        assert cli._TRAILING_ZEROS.tolist() == [
            len(q) - len(q.rstrip(b"0")) for q in quads]
        assert cli._POW10.tolist() == [float(10**k) for k in range(23)] + [1.0] * 22
        first = cli._FIRST.view(np.uint8).reshape(20, 8)
        assert [row.tobytes() for row in first] == [
            sign + bytes(5) + b"%d" % d + bytes(1) for sign in (bytes(1), b"-")
            for d in range(10)]
        # prefix and exponent bytes of each exponent, for any trailing zeros
        add = cli._ADD.view(np.uint8).reshape(9, 46, 32)
        assert (add == add[:1]).all(axis=0)[:, [*range(6), *range(24, 32)]].all()
        for row, e in enumerate(range(-14, 32)):
            prefix = b"0.000"[:1 - e] if -4 <= e < 0 else b""
            exponent = b"" if -4 <= e <= 8 else b"e%+03d" % e
            assert add[0, row, 1:6].tobytes() == prefix.ljust(5, b"\0")
            assert add[0, row, 24:28].tobytes() == exponent.ljust(4, b"\0")


def test_import_leaves_out_unused_modules():
    # the runtime is numpy-only: importing scipy.linalg alone would add about
    # 300 ms to every start-up, scipy.signal and scipy.stats about a second;
    # the package root imports no module, so eitrot.atom loads no numpy; only
    # main and its helpers import yaml (about 20 ms) and argparse; the
    # Faddeeva coefficients are literals, so nothing needs numpy.fft; and
    # only eitrot.cli writes files, so eitrot.scenarios loads no json
    src = Path(eitrot.__file__).resolve().parents[1]
    for module, absent in (("eitrot.cli", "scipy"), ("eitrot.atom", "numpy"),
                           ("eitrot.cli", "yaml"), ("eitrot.cli", "argparse"),
                           ("eitrot.cli", "numpy.fft"), ("eitrot.scenarios", "json")):
        code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
                "print(' '.join(sorted(sys.modules)))")
        done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                              capture_output=True, text=True, check=True)
        loaded = set(done.stdout.split())
        assert module in loaded
        assert not {m for m in loaded if m == absent or m.startswith(f"{absent}.")}


# A child that runs the default spectrum 3 times to warm up, then 10 times
# into fresh directories, and prints the median of its minor page faults
# per run.
_FAULTS_CHILD = """\
import resource, statistics, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from eitrot.cli import parse_config, run
spec, faults = parse_config({"scenario": "spectrum"}), []
for _ in range(13):
    with tempfile.TemporaryDirectory() as outdir:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(spec, Path(outdir))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""

_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {})
                    or not os.confstr("CS_GNU_LIBC_VERSION"), reason="not glibc")
@pytest.mark.parametrize("env, keeps", [({}, True), ({"MALLOC_TRIM_THRESHOLD_": "0"}, False)])
def test_import_keeps_freed_memory_for_the_next_run(env, keeps):
    # importing eitrot.cli raises glibc's mmap and trim thresholds, so a warm
    # run reuses the heap that the previous CSV block freed (about 200-370
    # faults per run at glibc's defaults, about 0 with them raised); a
    # threshold the user sets in the environment wins
    src = Path(eitrot.__file__).resolve().parents[1]
    child_env = {k: v for k, v in os.environ.items() if k not in _MALLOC_ENV}
    done = subprocess.run([sys.executable, "-I", "-c", _FAULTS_CHILD, str(src)],
                          env={**child_env, **env, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, check=True)
    assert (float(done.stdout.split()[-1]) < 50) == keeps, done.stdout[-40:]
