"""The porolab workloads: an INI config, the CLI command list, and output checks.

Every workload runs all four CLI commands, so every end-to-end metric exists on
every workload.  The config decides which layer dominates each command:

* ``line-bracket``: 1D, 8192 cells.  The eigensolve (inverse iteration with an
  inner CG) and the CG solve dominate; the inversion is cheap because the load
  stays below the flat-zone level.  8192 cells, not 16384, because the larger
  CG working set overflows a 1 MiB L2 and its timings spread several-fold.
* ``plane-flatzone``: 2D 256^2 at a load with a 30% flat zone, so the
  schedule runs to n=1024 without converging and ``solve``/``flatzone`` are
  bound by the nodewise inversion.
* ``plane-subcritical``: 2D 256^2, variable coefficient and a bump datum below
  the existence threshold.  The schedule stops after about seven orders, so
  ``solve`` is bound by the variable-coefficient eigensolve; an
  inversion-only change should leave it unchanged.

Both 2D configs set ``tol_linear = 1e-10``: with the default 1e-12 every
command at 256^2 exits 2 (see the known-defect probe in ``run.py``).

Checks compare outputs with closed forms where they exist (constant
coefficient and constant datum) and otherwise with values recorded from the
program, plus cross-checks between commands that hold on every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

COMMANDS = ("analyze", "sweep", "solve", "flatzone")

EXISTS, INDET, NONEXIST = "ExistsCertified", "Indeterminate", "NonexistenceProven"

# The log series a_1 = 1, a_m = 1/(m(m-1)) has sigma = 1 and K = Q(1) = 2.
K_LOG = 2.0
SIGMA_LOG = 1.0

REL_EXACT = 1e-8  # closed forms and values recorded from the program
REL_CROSS = 1e-6  # sup u against Q_n^{-1}(lambda * sup_v1) from another solve
ZONE_NODES = 5  # flat-zone measure may move by this many nodes
REL_GAP = 1e-5  # mean gap to sigma on the flat zone
BUMP_JITTER = 0.03  # bump-centre jitter off seed 0
REGIME_REL = 0.1  # off seed 0 the bracket stays within 10% of the seed-0 one


def q_log_partial(n: int, s: float) -> float:
    """Q_n(s) = s + sum_{m=2}^{n} s^m / (m(m-1)) for the log series."""
    total, power = s, s
    for m in range(2, n + 1):
        power *= s
        total += power / (m * (m - 1))
    return total


def q_log_partial_inverse(n: int, y: float) -> float:
    """Root of Q_n(s) = y by bisection; Q_n(s) >= s bounds it by y."""
    lo, hi = 0.0, max(y, 1e-300)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if q_log_partial(n, mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def discrete_lambda1(n_cells: int, dim: int) -> float:
    """First Dirichlet eigenvalue of the unit-interval/square FD Laplacian."""
    h = 1.0 / n_cells
    return dim * (4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2


def classify(lam: float, lambda_exist: float, lambda_nonexist: float, band: float) -> str:
    if lam < lambda_exist * (1.0 - band):
        return EXISTS
    if lam > lambda_nonexist * (1.0 + band):
        return NONEXIST
    return INDET


@dataclass(frozen=True)
class Expected:
    """What one pass of a workload must produce.  ``None`` skips a check."""

    verdict: str
    converged: bool
    sup_v1: float | None = None
    lambda_exist: float | None = None
    lambda_nonexist: float | None = None
    bracket_rel: float = REL_EXACT
    sweep_row: tuple[str, ...] | None = None
    last_order: int | None = None
    sup_u: float | None = None
    zone_measure: float = 0.0
    zone_gap: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    n_cells: int
    coeff: str  # [coeff] lines
    data: str  # [data] lines; {cx} and {cy} take the seeded bump centre
    lambda_scale: float
    tol_linear: float | None  # None keeps the program default
    sweep: tuple[float, float, int]
    n_max: int
    recorded: Expected
    jittered: Expected | None = None  # checks on seeds other than 0

    def config(self, seed: int) -> str:
        cx, cy = bump_centre(seed)
        text = (
            f"[domain]\ndim = {self.dim}\nn_cells = {self.n_cells}\n\n"
            f"[coeff]\n{self.coeff}\n\n"
            f"[data]\n{self.data.format(cx=cx, cy=cy)}\n"
            f"lambda_scale = {self.lambda_scale!r}\n\n"
            "[series]\nkind = log\n"
        )
        if self.tol_linear is not None:
            text += f"\n[solver]\ntol_linear = {self.tol_linear!r}\n"
        return text

    def expected(self, seed: int) -> Expected:
        if seed != 0 and self.jittered is not None:
            return self.jittered
        return self.recorded

    def outputs(self, work: Path) -> dict[str, tuple[Path, ...]]:
        """Files each command writes, keyed by command."""
        return {
            "analyze": (work / "analyze.json",),
            "sweep": (work / "sweep.csv",),
            "solve": (work / "solve.csv",),
            "flatzone": (work / "zone.csv", work / "zone.json"),
        }

    def argv(self, command: str, config: Path, work: Path) -> list[str]:
        out = str(self.outputs(work)[command][0])
        extra = {
            "analyze": [],
            "sweep": [
                "--lambda-min", repr(self.sweep[0]),
                "--lambda-max", repr(self.sweep[1]),
                "--steps", str(self.sweep[2]),
            ],
            "solve": ["--n", str(self.n_max)],
            "flatzone": ["--n-max", str(self.n_max)],
        }[command]
        return [command, "--config", str(config), *extra, "--out", out]


def bump_centre(seed: int) -> tuple[float, float]:
    """Seed 0 centres the bump; other seeds move it along x only.

    Moving it off y = 1/2 breaks the mirror symmetry of the problem and costs
    about 25% more CG iterations, which would make timings depend on the seed;
    along x (the coefficient ramps in x, so there is no symmetry to break) the
    iteration counts stay within 1% of seed 0.
    """
    if seed == 0:
        return 0.5, 0.5
    return 0.5 + random.Random(seed).uniform(-BUMP_JITTER, BUMP_JITTER), 0.5


_SUBCRITICAL_BRACKET = dict(lambda_exist=65.86912785781362, lambda_nonexist=87.12766684918229)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="line-bracket",
            why="1D solver-bound: eigensolve and CG dominate, no flat zone; "
            "closed-form bracket and a sweep row with a load on lambda_exist",
            dim=1,
            n_cells=8192,
            coeff="kind = constant",
            data="kind = constant",
            lambda_scale=10.0,
            tol_linear=None,
            sweep=(2.0, 24.0, 12),
            n_max=1024,
            recorded=Expected(
                verdict=EXISTS,
                converged=True,
                sup_v1=0.125,
                lambda_exist=K_LOG / 0.125,
                lambda_nonexist=K_LOG * discrete_lambda1(8192, 1),
                sweep_row=(EXISTS,) * 7 + (INDET,) * 2 + (NONEXIST,) * 3,
            ),
        ),
        Workload(
            name="plane-flatzone",
            why="2D inversion-bound: 30% flat zone, so solve and flatzone "
            "invert every node up to n=1024",
            dim=2,
            n_cells=256,
            coeff="kind = constant",
            data="kind = constant",
            lambda_scale=40.0,
            tol_linear=1e-10,
            sweep=(10.0, 60.0, 11),
            n_max=1024,
            recorded=Expected(
                verdict=NONEXIST,
                converged=False,
                sup_v1=0.0736704675243548,
                lambda_nonexist=K_LOG * discrete_lambda1(256, 2),
                sweep_row=(EXISTS,) * 4 + (INDET,) * 2 + (NONEXIST,) * 5,
                last_order=1024,
                sup_u=1.0084605172222783,
                zone_measure=0.2990264892578125,
                zone_gap=0.007033620028962126,
            ),
        ),
        Workload(
            name="plane-subcritical",
            why="2D variable-coefficient eigensolve dominates and solve stops "
            "after about 7 orders; the seed jitters the bump centre",
            dim=2,
            n_cells=256,
            coeff="kind = linear-ramp\nbase = 1\nslope_x = 1",
            data="kind = bump\nwidth = 0.2\ncenter_x = {cx:.4f}\ncenter_y = {cy:.4f}",
            lambda_scale=30.0,
            tol_linear=1e-10,
            sweep=(20.0, 120.0, 11),
            n_max=1024,
            recorded=Expected(
                verdict=EXISTS,
                converged=True,
                sup_v1=0.030363237908922043,
                sweep_row=(EXISTS,) * 5 + (INDET,) * 2 + (NONEXIST,) * 4,
                last_order=64,
                sup_u=0.6393525116893317,
                **_SUBCRITICAL_BRACKET,
            ),
            jittered=Expected(
                verdict=EXISTS, converged=True, bracket_rel=REGIME_REL, **_SUBCRITICAL_BRACKET
            ),
        ),
    )
}


def probe_config() -> str:
    """plane-flatzone with default tolerances: 256^2 exits 2 while the CG gate is too tight."""
    return replace(WORKLOADS["plane-flatzone"], tol_linear=None).config(0)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(got, want, rel) -> bool:
    return got is not None and abs(got - want) <= rel * abs(want)


def _first_line(path: Path) -> str:
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def _body(path: Path) -> str:
    """A small output file without its comment line."""
    return path.read_text().partition("\n")[2]


def check_pass(
    workload: Workload,
    seed: int,
    config_text: str,
    files: dict[str, tuple[Path, ...]],
    stdout: dict[str, str],
) -> dict[str, list[str]]:
    """Problems found in one pass's outputs, keyed by command (empty = good)."""
    want = workload.expected(seed)
    config_sha = hashlib.sha256(config_text.encode()).hexdigest()
    problems: dict[str, list[str]] = {c: [] for c in COMMANDS}
    cell_volume = (1.0 / workload.n_cells) ** workload.dim

    def need(command: str, ok: bool, what: str) -> None:
        if not ok:
            problems[command].append(what)

    def zone_ok(measure: float) -> bool:
        # a zero zone must stay empty; a real one may gain or lose edge nodes
        if want.zone_measure == 0.0:
            return measure == 0.0
        return abs(measure - want.zone_measure) <= ZONE_NODES * cell_volume

    for command, paths in files.items():
        for path in paths:
            if not path.is_file():
                need(command, False, f"{path.name} missing")
            else:
                line = _first_line(path)
                need(
                    command,
                    line.startswith("# porolab ") and line.endswith(f" config-sha256={config_sha}"),
                    f"{path.name} header {line!r}",
                )
    if any(problems.values()):  # later checks read every file
        return {c: problems[c] or ["not checked: outputs missing"] for c in COMMANDS}

    # analyze: bracket, verdict and K
    report = json.loads(_body(files["analyze"][0]))
    sup_v1 = report["sup_v1"]
    lam_e, lam_n = report["lambda_exist"], report["lambda_nonexist"]
    need("analyze", report["verdict"] == want.verdict, f"verdict {report['verdict']}")
    need("analyze", report["sigma"] == SIGMA_LOG, f"sigma {report['sigma']}")
    need("analyze", _close(report["K_value"], K_LOG, 1e-12), f"K {report['K_value']}")
    need("analyze", _close(lam_e, K_LOG / sup_v1, 1e-12), "lambda_exist != K/sup_v1")
    need(
        "analyze",
        _close(lam_n, report["K_value"] * report["lambda1"], 1e-12),
        "lambda_nonexist != K*lambda1",
    )
    for key, value, rel in (
        ("sup_v1", want.sup_v1, REL_EXACT),
        ("lambda_exist", want.lambda_exist, want.bracket_rel),
        ("lambda_nonexist", want.lambda_nonexist, want.bracket_rel),
    ):
        if value is not None:
            need("analyze", _close(report[key], value, rel), f"{key} {report[key]!r} vs {value!r}")
    need(
        "analyze",
        zone_ok(report["flat_zone_measure"]),
        f"flat_zone_measure {report['flat_zone_measure']!r}",
    )

    # sweep: the row must follow the analyze bracket, and match the fixed row
    band = 10.0 * (report["tol_linear"] + report["tol_eig"] + report["tol_series"])
    lines = _body(files["sweep"][0]).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    lams = np.linspace(*workload.sweep)
    need("sweep", lines[0] == "lambda,verdict" and len(rows) == len(lams), "sweep shape")
    if not problems["sweep"]:
        need("sweep", all(float(r[0]) == lam for r, lam in zip(rows, lams)), "sweep loads")
        verdicts = tuple(r[1] for r in rows)
        need(
            "sweep",
            verdicts == tuple(classify(x, lam_e, lam_n, band) for x in lams),
            "sweep disagrees with the analyze bracket",
        )
        if want.sweep_row is not None:
            need("sweep", verdicts == want.sweep_row, f"sweep row {verdicts}")

    # solve: sup u is Q_n^{-1} of sup v = lambda * sup_v1, since Q_n^{-1} is monotone
    u = np.loadtxt(files["solve"][0], delimiter=",", skiprows=2, usecols=-1)
    sup_u = float(u.max())
    m = re.search(r": (converged|schedule exhausted), sup u = \S+ at n=(\d+)", stdout["solve"])
    need("solve", m is not None, f"solve stdout {stdout['solve']!r}")
    if m is not None:
        last_n = int(m.group(2))
        need("solve", (m.group(1) == "converged") == want.converged, m.group(1))
        if want.last_order is not None:
            need("solve", last_n == want.last_order, f"stopped at n={last_n}")
        ref = q_log_partial_inverse(last_n, workload.lambda_scale * sup_v1)
        need("solve", _close(sup_u, ref, REL_CROSS), f"sup u {sup_u!r} vs Q_n^-1 {ref!r}")
    need("solve", float(u.min()) >= 0.0, "negative u")
    if want.sup_u is not None:
        need("solve", _close(sup_u, want.sup_u, REL_EXACT), f"sup u {sup_u!r}")

    # flatzone: summary against recorded values and against its own mask
    zone = json.loads(_body(files["flatzone"][1]))
    mask = np.loadtxt(files["flatzone"][0], delimiter=",", skiprows=2, usecols=-1)
    need("flatzone", zone["status"] == "OK", f"status {zone['status']}")
    need("flatzone", zone_ok(zone["measure"]), f"measure {zone['measure']!r}")
    need("flatzone", _close(zone["mean_gap"], want.zone_gap, REL_GAP), f"mean_gap {zone['mean_gap']!r}")
    need("flatzone", set(np.unique(mask)) <= {0.0, 1.0}, "mask not 0/1")
    need(
        "flatzone",
        _close(float(mask.sum()) * cell_volume, zone["measure"], 1e-12),
        "mask does not add up to the measure",
    )
    return problems
