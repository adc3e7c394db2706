"""The scripts under demos/ run to the end against the current public API, and
every public function is reached from a command, a demo, the README or an
acceptance criterion, or named below as an exception."""

import inspect
import pathlib
import re
import runpy

import pvrefine as pv

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public functions that no cli.py line, demo, README line or test_acceptance.py
# line names: only the library and its unit tests use them
UNREACHED = set()


def test_demos_run(capsys):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    for path in demos:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip(), path.name


def test_unreached_public_functions():
    sources = [ROOT / "src" / "pvrefine" / "cli.py", ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "demos").glob("*.py"))]
    text = "\n".join(p.read_text() for p in sources)
    public = [n for n in pv.__all__ if inspect.isfunction(getattr(pv, n))]
    assert {n for n in public if not re.search(r"\b%s\b" % n, text)} == UNREACHED
