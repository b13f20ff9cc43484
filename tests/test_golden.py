"""Every case of ``tools/compare_outputs.py`` run in process against the
outputs recorded in ``tests/golden.json`` (written by ``--write-golden``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs",
    Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

GOLDEN = json.loads(compare_outputs.GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(name for name, _ in compare_outputs.MATRIX)


@pytest.mark.parametrize("name, docs", compare_outputs.MATRIX,
                         ids=[name for name, _ in compare_outputs.MATRIX])
def test_outputs_match_golden(tmp_path, name, docs):
    got = compare_outputs.golden_case(docs, tmp_path / name)
    problems = compare_outputs.golden_problems(
        name, GOLDEN["cases"][name], got, GOLDEN["revision"])
    assert not problems, "\n".join(problems)


def test_one_fresh_interpreter_matches_golden(tmp_path):
    # the path of --against and --write-golden: every case through
    # run_in_process in one interpreter that puts this tree's src/ first
    records = compare_outputs.run_tree(compare_outputs.REPO, tmp_path / "out")
    assert sorted(records) == sorted(GOLDEN["cases"])
    problems = [problem for name, record in records.items()
                for problem in compare_outputs.golden_problems(
                    name, GOLDEN["cases"][name], record, GOLDEN["revision"])]
    assert not problems, "\n".join(problems)
