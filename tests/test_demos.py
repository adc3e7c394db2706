"""The scripts under demos/ run to the end against the current public API."""

import pathlib
import runpy


def test_demos_run(capsys):
    demos = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert len(demos) == 4
    for path in demos:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip(), path.name
