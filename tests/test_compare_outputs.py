"""The output comparison of ``tools/compare_outputs.py`` on hand-made case
records; no git and no CLI run."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs",
    Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

CSV = "detuning_mhz,phi_deg\n-1,0.25\n0,0\n1,-0.25\n"
META = {"version": "0.1.0", "sweep": {"scheme": "sigma_f2", "density_m3": 1.62e17,
                                      "populations": {"a1": 0.125}}}


def outputs(directory: Path, csv_text=CSV, meta=META, indent=2) -> dict:
    """The ``case_record`` of a run that wrote these files into ``directory``."""
    directory.mkdir()
    (directory / "spectrum.csv").write_text(csv_text, encoding="utf-8")
    (directory / "spectrum.meta.json").write_text(
        json.dumps(meta, indent=indent, sort_keys=True) + "\n", encoding="utf-8")
    return compare_outputs.case_record(directory, [[0, "", ""]])


def report(base: dict, head: dict) -> tuple[bool, list[str]]:
    """(match, report lines) as ``--against`` prints them for one case."""
    items = compare_outputs.compare_records(base, head)
    return all(same for same, _ in items), [line for _, lines in items for line in lines]


def compare(tmp_path, **head):
    return report(outputs(tmp_path / "base"), outputs(tmp_path / "head", **head))


def test_identical_outputs_match(tmp_path):
    ok, lines = compare(tmp_path)
    assert ok
    assert lines == [
        "spectrum.csv: identical",
        "spectrum.meta.json: keys and non-float values equal,"
        " largest float difference 0",
    ]


def test_one_changed_cell_is_located(tmp_path):
    ok, lines = compare(tmp_path, csv_text=CSV.replace("-0.25", "-0.5"))
    assert not ok
    assert lines[:2] == [
        "spectrum.csv: first difference: row 3, column phi_deg: -0.25 vs -0.5",
        "  column phi_deg: largest abs 0.25, rel 1",
    ]


@pytest.mark.parametrize("shift, within", [(1e-15, True), (1e-6, False)])
def test_meta_float_against_the_tolerance(tmp_path, shift, within):
    meta = json.loads(json.dumps(META))
    meta["sweep"]["populations"]["a1"] += shift
    ok, lines = compare(tmp_path, meta=meta)
    assert ok is within
    assert lines[1].endswith("(at sweep.populations.a1)")


def test_nan_cell_is_the_largest_difference(tmp_path):
    ok, lines = compare(tmp_path, csv_text=CSV.replace("-1,0.25", "-1,nan")
                        .replace("-0.25", "-0.5"))
    assert not ok
    assert lines[1] == "  column phi_deg: largest abs nan, rel nan"


def test_nan_meta_float_is_not_hidden_by_a_later_leaf(tmp_path):
    meta = json.loads(json.dumps(META))
    meta["sweep"]["density_m3"] = float("nan")  # sorts before sweep.populations.a1
    ok, lines = compare(tmp_path, meta=meta)
    assert not ok
    assert lines[1] == ("spectrum.meta.json: keys and non-float values equal,"
                        " largest float difference nan (at sweep.density_m3)")


def test_changed_meta_string_fails(tmp_path):
    meta = json.loads(json.dumps(META))
    meta["sweep"]["scheme"] = "pi_f2"
    ok, lines = compare(tmp_path, meta=meta)
    assert not ok
    assert "value of sweep.scheme differs" in lines[1]


def test_meta_layout_change_fails(tmp_path):
    # the same value, indented by four spaces instead of two
    ok, lines = compare(tmp_path, indent=4)
    assert not ok
    assert lines[1] == ("spectrum.meta.json: head is not laid out as"
                        " json.dumps(indent=2, sort_keys=True) plus a newline")


def test_missing_file_fails(tmp_path):
    base = outputs(tmp_path / "base")
    head = outputs(tmp_path / "head")
    del head["files"]["spectrum.csv"]
    ok, lines = report(base, head)
    assert not ok
    assert lines[0] == "files differ: only in base ['spectrum.csv'], only in head []"


def golden_record(shift=0.0, sha="aa", code=0):
    meta = json.loads(json.dumps(META))
    meta["sweep"]["populations"]["a1"] += shift
    return {"runs": [[code, "spectrum: 3 points\n", ""]],
            "meta": {"spectrum.meta.json": meta}, "sha256": {"spectrum.csv": sha}}


def case_record(indent=2, **golden):
    """A ``golden_case`` record: the golden record's meta files as text."""
    record = golden_record(**golden)
    record["meta"] = {name: json.dumps(meta, indent=indent, sort_keys=True) + "\n"
                      for name, meta in record["meta"].items()}
    return record


def test_golden_record_within_the_tolerance_matches():
    assert compare_outputs.golden_problems(
        "case", golden_record(), case_record(shift=1e-15), "abc1234") == []


def test_golden_meta_layout_change_fails():
    assert compare_outputs.golden_problems(
        "case", golden_record(), case_record(indent=4), "abc1234") == [
        "case case, spectrum.meta.json: head is not laid out as json.dumps(indent=2,"
        " sort_keys=True) plus a newline; see python tools/compare_outputs.py"
        " --against abc1234"]


def test_golden_mismatch_names_case_file_and_command():
    problems = compare_outputs.golden_problems(
        "case", golden_record(), case_record(shift=1e-6, sha="bb", code=2), "abc1234")
    see = "; see python tools/compare_outputs.py --against abc1234"
    assert problems == [
        "case case, runs differ: [[0, 'spectrum: 3 points\\n', '']]"
        " vs [[2, 'spectrum: 3 points\\n', '']]" + see,
        "case case, spectrum.csv: bytes differ" + see,
        "case case, spectrum.meta.json: keys and non-float values equal, largest"
        " float difference 1e-06 (at sweep.populations.a1)" + see,
    ]


def test_portable_names_the_settings_that_differ(monkeypatch, capsys):
    settings = {"a": {"X": "1"}, "b": {"X": "2"}, "c": {"Y": "3"}}
    monkeypatch.setattr(compare_outputs, "portable_settings", lambda: settings)
    monkeypatch.setattr(compare_outputs, "portable_problems",
                        lambda env, out: ["case x, runs differ"] if "X" in env else [])
    assert compare_outputs.main(["--portable"]) == 1
    assert capsys.readouterr().out == (
        "a: DIFFER\n  case x, runs differ\nb: DIFFER\n  case x, runs differ\nc: match\n"
        "differ from tests/golden.json: a, b\n")


def test_portable_reports_a_host_that_cannot_take_the_settings(monkeypatch, capsys):
    def unavailable():
        raise RuntimeError("the settings are for x86-64, not arm64")
    monkeypatch.setattr(compare_outputs, "portable_settings", unavailable)
    assert compare_outputs.main(["--portable"]) == 1
    assert capsys.readouterr().err == "error: the settings are for x86-64, not arm64\n"
