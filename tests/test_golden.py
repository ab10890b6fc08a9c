"""Golden outputs: every command on every configuration in tests/golden.

``tests/golden/generate.py`` wrote the configurations and the expected
outputs.  Each test replays one command through ``cli.entry`` into a fresh
directory.  Exit codes, comment lines, words, verdicts, statuses, JSON keys
and integers must match exactly and floats to a relative 1e-11.  The
flat-zone mask must match exactly except at the recorded nodes where
lambda * v1 lies within 1e-10 K of K; a mismatch there is reported by node.
"""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from porolab.cli import entry

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name[: -len(".expected.json")] for p in GOLDEN.glob("*.expected.json"))
OUT = {"analyze": "report.json", "solve": "u.csv", "sweep": "sweep.csv", "flatzone": "zone.csv"}
REL = 1e-11

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def _same_number(got: str, want: str) -> bool:
    if got == want:
        return True
    if _INTEGER.fullmatch(got) or _INTEGER.fullmatch(want):
        return False
    return math.isclose(float(got), float(want), rel_tol=REL, abs_tol=0.0)


def _same_line(got: str, want: str) -> bool:
    if got.startswith("#") or want.startswith("#"):
        return got == want
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    return all(map(_same_number, _NUMBER.findall(got), _NUMBER.findall(want)))


def _compare_text(got: str, want: str, what: str, near=()) -> None:
    """Line by line; a data row listed in ``near`` may differ, with a warning."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{what}: line count"
    head = sum(1 for line in want_lines if line[:1] == "#" or line[:1].isalpha())
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if _same_line(g, w):
            continue
        node = k - head
        assert node in near, f"{what}: line {k + 1} is {g!r}, expected {w!r}"
        warnings.warn(f"{what}: mask differs at near-threshold node {node}: {g!r}")


def _compare_json(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} vs {list(want)}"
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length"
        for k, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _compare_file(got: str, want: str, what: str, near=()) -> None:
    if what.endswith(".json"):
        got_comment, got_body = got.split("\n", 1)
        want_comment, want_body = want.split("\n", 1)
        assert got_comment == want_comment, f"{what}: comment line"
        _compare_json(json.loads(got_body), json.loads(want_body), what)
    else:
        _compare_text(got, want, what, near)


@pytest.mark.parametrize("command", list(OUT))
@pytest.mark.parametrize("case", CASES)
def test_golden_output(tmp_path, case, command):
    expected = json.loads((GOLDEN / f"{case}.expected.json").read_text())[command]
    argv = [command, "--config", str(GOLDEN / f"{case}.ini"), *expected["args"]]
    argv += ["--out", str(tmp_path / OUT[command])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = entry(argv)
    assert code == expected["exit"], stderr.getvalue()
    _compare_text(stdout.getvalue(), expected["stdout"], f"{case} {command} stdout")
    _compare_text(stderr.getvalue(), expected["stderr"], f"{case} {command} stderr")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected["files"])
    near = set(expected.get("near_threshold", ()))
    for name in expected["files"]:
        _compare_file(
            (tmp_path / name).read_text(),
            expected["files"][name],
            f"{case} {command} {name}",
            near if name.endswith(".csv") and command == "flatzone" else (),
        )
