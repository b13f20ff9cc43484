"""The benchmark workloads still reproduce their recorded physics
fingerprints, so a change that moves a peak fails here as well as in the
benchmark."""

import importlib.util
from pathlib import Path

import pytest

from eitrot import cli

_SPEC = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("size", ["quick", "full"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_zero_outputs_match_the_reference(name, size, tmp_path):
    docs = workloads.documents(name, 0, size)
    written = []
    for doc in docs:
        written += cli.run(cli.parse_config(doc), tmp_path)
    assert workloads.check(name, docs, 0, tmp_path, written,
                           workloads.REFERENCE[name][size]) == []
