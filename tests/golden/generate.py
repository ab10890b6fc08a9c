"""Write the golden configurations and the outputs expected from them.

Run from anywhere with ``python tests/golden/generate.py``.  For each case
below it writes ``<name>.ini``, runs ``analyze``, ``solve``, ``sweep`` and
``flatzone`` through ``porolab.cli.entry`` and records, in
``<name>.expected.json``, each command's arguments, exit code, stdout,
stderr and output files.  ``tests/test_golden.py`` replays the same commands
and compares.  The flat-zone mask at a node is a comparison of lambda * v1
with K, so the recorded ``near_threshold`` lists the nodes (flat index) where
``|lambda * v1 - K| <= 1e-10 K``: there solver noise may flip the mask.

Re-run this only to accept a deliberate change of outputs; a refactor that
keeps outputs leaves every file here byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import porolab.cli  # noqa: E402
from porolab.pipeline import ZONE_OK, solve_unit_load  # noqa: E402

NEAR_THRESHOLD = 1e-10
DATUM = "datum-line16.csv"

# name -> (config text, extra arguments of solve, sweep and flatzone)
CASES = {
    "log-line-below": (
        "[domain]\nn_cells = 32\n\n"
        "[coeff]\nkind = linear-ramp\nbase = 1\nslope_x = 1\n\n"
        "[data]\nlambda_scale = 10\n\n"
        "[series]\nkind = log\n",
        {
            "solve": ["--n", "32"],
            "sweep": ["--lambda-min", "15", "--lambda-max", "35", "--steps", "5"],
            "flatzone": ["--n-max", "64"],
        },
    ),
    "power-law-plane-inside": (
        "[domain]\ndim = 2\nn_cells = 16\nn_cells_y = 12\n\n"
        "[coeff]\nkind = linear-ramp\nbase = 1\nslope_x = 0.5\nslope_y = 1\n\n"
        "[data]\nkind = bump\ncenter_x = 0.4\ncenter_y = 0.6\nwidth = 0.2\n"
        "amplitude = 2\nlambda_scale = 36\n\n"
        "[series]\nkind = power-law\nexponent = -2\n\n"
        "[run]\nn_schedule = 1 2 4 8 16\n",
        {
            "solve": ["--n", "16"],
            "sweep": ["--lambda-min", "20", "--lambda-max", "50", "--steps", "4"],
            "flatzone": ["--n-max", "32"],
        },
    ),
    "zeta3-line-flat": (
        "[domain]\nn_cells = 32\n\n"
        "[data]\nlambda_scale = 40\n\n"
        "[series]\nkind = custom\nvalues = 1, 0.125\ntail = power-law\ntail_exponent = -3\n",
        {
            "solve": ["--n", "64"],
            "sweep": ["--lambda-min", "5", "--lambda-max", "15", "--steps", "3"],
            "flatzone": ["--n-max", "128"],
        },
    ),
    "geometric-line-file": (
        "[domain]\nn_cells = 16\n\n"
        f"[data]\nkind = file\npath = {DATUM}\nlambda_scale = 3\n\n"
        "[series]\nkind = geometric\nratio = 0.5\n",
        {
            "solve": ["--n", "16"],
            "sweep": ["--lambda-min", "1", "--lambda-max", "100", "--steps", "3"],
            "flatzone": ["--n-max", "16"],
        },
    ),
    "harmonic-plane-zero": (
        "[domain]\ndim = 2\nn_cells = 8\n\n"
        "[coeff]\nalpha = 0.5\nbeta = 2\n\n"
        "[data]\nvalue = 0\nlambda_scale = 7\n\n"
        "[series]\nkind = harmonic\n",
        {
            "solve": ["--n", "8"],
            "sweep": ["--lambda-min", "1", "--lambda-max", "50", "--steps", "3"],
            "flatzone": ["--n-max", "8"],
        },
    ),
    "custom-ratio-line-bump": (
        "[domain]\nn_cells = 24\n\n"
        "[data]\nkind = bump\ncenter_x = 0.3\nwidth = 0.15\namplitude = 1.5\n"
        "lambda_scale = 5\n\n"
        "[series]\nkind = custom\nvalues = 1, 0.5\n",
        {
            "solve": ["--n", "32"],
            "sweep": ["--lambda-min", "1", "--lambda-max", "20", "--steps", "3"],
            "flatzone": ["--n-max", "32"],
        },
    ),
}

OUTPUTS = {
    "analyze": ["report.json"],
    "solve": ["u.csv"],
    "sweep": ["sweep.csv"],
    "flatzone": ["zone.csv", "zone.json"],
}


def datum_text() -> str:
    xs = np.linspace(0.0, 1.0, 17)
    rows = "".join(f"{x:.16e},{4.0 * x * (1.0 - x):.16e}\n" for x in xs)
    return "x,value\n" + rows


def run_command(command: str, config: Path, extra: list[str], out_dir: Path) -> dict:
    """Run one command into ``out_dir``; return what it printed and wrote."""
    argv = [command, "--config", str(config), *extra, "--out", str(out_dir / OUTPUTS[command][0])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = porolab.cli.entry(argv)
    files = {
        name: (out_dir / name).read_text()
        for name in OUTPUTS[command]
        if (out_dir / name).is_file()
    }
    return {
        "args": extra,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": files,
    }


def near_threshold_nodes(problem, tols, result) -> list[int]:
    """Flat indices where v = lambda * v1 lies within 1e-10 K of K."""
    if result.status != ZONE_OK:
        return []
    v = solve_unit_load(problem, tols)[1].scaled(problem.lambda_scale)
    gap = np.abs(v.values.ravel() - result.K_value)
    return [int(i) for i in np.flatnonzero(gap <= NEAR_THRESHOLD * result.K_value)]


def main() -> None:
    (HERE / DATUM).write_text(datum_text())
    zones = []
    original = porolab.cli.flat_zone

    def recording(seq, problem, n_large, tols):
        result = original(seq, problem, n_large, tols)
        zones.append(near_threshold_nodes(problem, tols, result))
        return result

    porolab.cli.flat_zone = recording
    try:
        for name, (text, extras) in CASES.items():
            config = HERE / f"{name}.ini"
            config.write_text(text)
            expected = {}
            with tempfile.TemporaryDirectory() as tmp:
                for command in OUTPUTS:
                    expected[command] = run_command(
                        command, config, extras.get(command, []), Path(tmp)
                    )
            expected["flatzone"]["near_threshold"] = zones[-1]
            (HERE / f"{name}.expected.json").write_text(json.dumps(expected, indent=1) + "\n")
            print(f"wrote {name}: exit codes {[expected[c]['exit'] for c in OUTPUTS]}")
    finally:
        porolab.cli.flat_zone = original


if __name__ == "__main__":
    main()
