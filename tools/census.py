"""Line census of ``src/eitrot``: per module, the executable lines that the
``MATRIX`` cases of ``tools/compare_outputs.py`` reach, those only tier-1
reaches, and those neither reaches, traced by ``sys.settrace`` in this
process (not in a test's subprocesses). Run ``python tools/census.py``."""

import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "eitrot"
sys.path[:0] = [str(REPO / "src"), str(REPO / "tools")]
from compare_outputs import MATRIX, golden_case  # noqa: E402  (imports no eitrot)


def executable(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return lines.union(*(executable(c) for c in code.co_consts if hasattr(c, "co_lines")))


def traced(run) -> tuple:
    """What ``run(trace)`` returns, and the lines of ``PACKAGE`` that it runs."""
    reached = {}

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(str(PACKAGE)):
            reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
            return trace

    # trace is also a pytest plugin: a test that reaches the recursion limit
    # makes it raise, which unsets it, so it is set again before each test
    trace.pytest_runtest_setup = lambda: sys.settrace(trace)
    sys.settrace(trace)
    try:
        return run(trace), reached
    finally:
        sys.settrace(None)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census.") as tmp:
        _, runs = traced(lambda _: [golden_case(d, Path(tmp) / n) for n, d in MATRIX])
    status, tier1 = traced(lambda trace: pytest.main(
        ["-q", "-p", "no:cacheprovider", str(REPO / "tests")], plugins=[trace]))
    print("| module | executable | `MATRIX` runs | tier-1 only | neither |")
    print("|---|---|---|---|---|")
    for path in sorted(PACKAGE.glob("*.py")):
        own = executable(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
        ran = own & runs.get(str(path), set())
        only = own & tier1.get(str(path), set()) - ran
        print(f"| `{path.stem}` | {len(own)} | {len(ran)} | {len(only)} | "
              f"{len(own - ran - only)} |")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
