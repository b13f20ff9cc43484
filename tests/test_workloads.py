"""The benchmark workloads still reproduce their recorded physics
fingerprints, so a change that moves a peak fails here as well as in the
benchmark, and their traced runs still make spans that the benchmark can
account for."""

import importlib.util
from pathlib import Path

import pytest

from eitrot import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


def _run(docs, outdir):
    written = []
    for doc in docs:
        written += cli.run(cli.parse_config(doc), outdir)
    return written


@pytest.mark.parametrize("size", ["quick", "full"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_zero_outputs_match_the_reference(name, size, tmp_path):
    docs = workloads.documents(name, 0, size)
    written = _run(docs, tmp_path)
    assert workloads.check(name, docs, 0, tmp_path, written,
                           workloads.REFERENCE[name][size]) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_runs_nest_in_run_and_repeat_their_work(name, tmp_path):
    # The benchmark's traced mode fails a run whose traced calls fall
    # outside a ``cli.run`` span (their self times no longer add up to the
    # run) or whose calls differ from the first run's. A warm-up run first
    # fills the caches, as the benchmark's does.
    docs = workloads.documents(name, 0, "quick")
    _run(docs, tmp_path)
    functions = []
    with tracer.Tracer() as traced:
        for _ in range(2):
            traced.start_run()
            _run(docs, tmp_path)
            functions.append(traced.run_profile()["functions"])
    spans = traced.spans
    for layer, function, _, _, parent, run in spans:
        if function not in ("run", "parse_config"):
            assert parent >= 0 and spans[parent][5] == run, (layer, function)
    assert not [s for s in spans if s[4] >= 0 and spans[s[4]][1] == "parse_config"]
    assert functions[0] == functions[1]
