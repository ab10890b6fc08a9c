"""Configuration parsing and the command-line front end."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from porolab.cli import entry
from porolab.config import load_config
from porolab.elliptic import Axis, GridFunction, build_grid, write_gridfunction_csv
from porolab.errors import ConfigError

MINIMAL = """
[series]
kind = log
"""

FULL = """
[domain]
dim = 2
x0 = 0.0
x1 = 2.0
y0 = -1.0
y1 = 1.0
n_cells = 16
n_cells_y = 12

[coeff]
kind = linear-ramp
base = 1.5
slope_x = 0.25
slope_y = 0.5

[data]
kind = bump
center_x = 1.0
center_y = 0.0
width = 0.3
amplitude = 2.0
lambda_scale = 4.0

[series]
kind = geometric
ratio = 0.5
m_max = 64

[solver]
tol_linear = 1e-11
tol_eig = 1e-9

[run]
n_schedule = 1 2 4 8
stop_tol = 1e-7
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.problem.grid.dim == 1
    assert cfg.problem.grid.axes[0].n == 128
    assert cfg.sequence.label == "log"
    assert cfg.problem.lambda_scale == 1.0
    assert cfg.stop_tol == 1e-8
    assert cfg.n_schedule[0] == 1 and cfg.n_schedule[-1] == 1024
    assert cfg.tolerances.tol_linear == 1e-12
    assert len(cfg.config_hash) == 64


def test_full_config_values(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    g = cfg.problem.grid
    assert g.dim == 2
    assert g.axes == (Axis(0.0, 2.0, 16), Axis(-1.0, 1.0, 12))
    ax, ay = cfg.problem.field.profiles
    np.testing.assert_allclose(ax, 1.5 + 0.25 * g.axes[0].nodes, rtol=1e-15)
    np.testing.assert_allclose(ay, 1.5 + 0.5 * g.axes[1].nodes, rtol=1e-15)
    assert cfg.problem.f.values.max() == pytest.approx(2.0, rel=1e-12)  # bump peak
    assert cfg.problem.lambda_scale == 4.0
    assert cfg.sequence.rate == 0.5
    assert cfg.tolerances.tol_linear == 1e-11
    assert cfg.tolerances.m_max == 64
    assert cfg.n_schedule == (1, 2, 4, 8)
    assert cfg.stop_tol == 1e-7


def test_config_hash_is_sha256_of_bytes(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = load_config(path)
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert cfg.config_hash == digest


def test_config_builds_runtime_objects(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    p = cfg.problem
    assert p.grid.dim == 2
    assert p.lambda_scale == 4.0
    # bump datum peaks at the configured center with the configured amplitude
    j = np.argmin(np.abs(p.grid.axes[1].nodes - 0.0))
    i = np.argmin(np.abs(p.grid.axes[0].nodes - 1.0))
    assert p.f.values[j, i] == pytest.approx(2.0, rel=1e-12)
    seq = cfg.sequence
    assert (seq.label, seq.rule) == ("geometric(ratio=0.5)", "ratio")


def test_bump_profile_formula(tmp_path):
    text = MINIMAL + "\n[data]\nkind = bump\ncenter_x = 0.5\nwidth = 0.2\namplitude = 3.0\n"
    cfg = load_config(_write(tmp_path, text))
    f = cfg.problem.f
    xs = cfg.problem.grid.axes[0].nodes
    expect = 3.0 * np.exp(-((xs - 0.5) ** 2) / (2 * 0.2**2))
    np.testing.assert_allclose(f.values, expect, rtol=1e-12)


def test_file_datum_resolved_relative_to_config(tmp_path):
    g = build_grid(1, n_cells=16)
    u = GridFunction(grid=g, values=np.linspace(0, 1, g.n_nodes))
    write_gridfunction_csv(u, str(tmp_path / "f.csv"))
    text = "[domain]\nn_cells = 16\n\n[series]\nkind = harmonic\n\n[data]\nkind = file\npath = f.csv\n"
    cfg = load_config(_write(tmp_path, text))
    f = cfg.problem.f
    np.testing.assert_allclose(f.values, u.values)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[nosuch]\nx = 1\n", "unknown section"),
        ("[series]\nkind = log\ncolor = red\n", "series.color"),
        (MINIMAL + "tol = 1e-6\n", "series.tol"),
        ("[series]\nkind = fibonacci\n", "series.kind"),
        ("[series]\n", "series.kind is required"),
        (MINIMAL + "\n[domain]\ndim = 3\n", "domain.dim"),
        (MINIMAL + "\n[domain]\nn_cells = many\n", "domain.n_cells"),
        (MINIMAL + "\n[domain]\nn_cells = 2\n", "at least 4"),
        (MINIMAL + "\n[data]\nlambda_scale = -2\n", "data.lambda_scale"),
        (MINIMAL + "\n[data]\nvalue = -1\n", "data.value"),
        (MINIMAL + "\n[data]\nkind = file\n", "data.path"),
        (MINIMAL + "\n[run]\nn_schedule = 4 2\n", "n_schedule"),
        (MINIMAL + "\n[run]\nstop_tol = 0\n", "run.stop_tol"),
        (MINIMAL + "\n[solver]\njacobi = maybe\n", "solver.jacobi"),
        (MINIMAL + "\n[solver]\ntol_linear = -1e-9\n", "solver.tol_linear"),
        # keys that the chosen kind, tail or dimension never reads
        (MINIMAL + "\n[coeff]\nkind = constant\nslope_x = 5\n", "coeff.slope_x is not"),
        (MINIMAL + "\n[coeff]\nkind = linear-ramp\nvalue = 2\n", "coeff.value is not"),
        (MINIMAL + "ratio = 7\n", "series.ratio is not"),
        (MINIMAL + "tail_exponent = -3\n", "series.tail_exponent is not"),
        ("[series]\nkind = harmonic\nvalues = 1, 2\n", "series.values is not"),
        ("[series]\nkind = power-law\nexponent = 1\nratio = 2\n", "series.ratio is not"),
        (MINIMAL + "\n[data]\nkind = constant\nwidth = 0.2\n", "data.width is not"),
        (MINIMAL + "\n[data]\nkind = constant\npath = f.csv\n", "data.path is not"),
        (MINIMAL + "\n[data]\nkind = bump\nvalue = 2\n", "data.value is not"),
        (MINIMAL + "\n[domain]\ny0 = -1\n", "domain.y0 is not"),
        (MINIMAL + "\n[domain]\ndim = 1\ny1 = 2\n", "domain.y1 is not"),
        (MINIMAL + "\n[domain]\nn_cells_y = 8\n", "domain.n_cells_y is not"),
        (MINIMAL + "\n[data]\nkind = bump\ncenter_y = 0.3\n", "data.center_y is not"),
        (MINIMAL + "\n[coeff]\nkind = linear-ramp\nslope_y = 1\n", "coeff.slope_y is not"),
        (
            "[series]\nkind = custom\nvalues = 1, 0.5\ntail_exponent = -3\n",
            "series.tail_exponent is not",
        ),
        (
            "[series]\nkind = custom\nvalues = 1, 0.5\ntail = repeat-ratio\n"
            "tail_exponent = -3\n",
            "series.tail_exponent is not",
        ),
        (MINIMAL + "tail = power-law\n", "series.tail is not read when series.kind = log"),
        (MINIMAL + "\n[run]\ncolor = red\n", "run.color is not read"),
        (MINIMAL + "\n[domain]\ncolor = red\n", "domain.color is not read"),
        (
            MINIMAL + "\n[domain]\ndim = 2\n\n[data]\nkind = constant\ncenter_y = 0.3\n",
            "data.center_y is not read when data.kind = constant, domain.dim = 2",
        ),
        (MINIMAL + "m_max = 8\n", "series.m_max must be at least 16"),
    ],
)
def test_config_errors_name_the_key(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(_write(tmp_path, text))


# every key that each kind and tail reads; keys ending in _y (and y0, y1)
# are read on a 2D grid only
_READ_KEYS = {
    "coeff": {
        "constant": "value = 2",
        "linear-ramp": "base = 1\nslope_x = 0.25\nslope_y = 0.5",
    },
    "data": {
        "constant": "value = 2",
        "bump": "center_x = 1\ncenter_y = 0\nwidth = 0.3\namplitude = 2",
        "file": "path = f.csv",
    },
    "series": {
        "harmonic": "",
        "log": "",
        "geometric": "ratio = 0.5",
        "power-law": "exponent = -2",
        "custom": "values = 1, 0.5\ntail = repeat-ratio",
        "custom power-law": "values = 1, 0.5\ntail = power-law\ntail_exponent = -3",
    },
}
_ALWAYS_READ = """
[domain]
dim = {dim}
x0 = 0
x1 = 2
y0 = -1
y1 = 1
n_cells = 8
n_cells_y = 6

[coeff]
kind = {coeff}
{coeff_keys}
alpha = 0.25
beta = 4

[data]
kind = {data}
{data_keys}
lambda_scale = 3

[series]
kind = {series}
{series_keys}
m_max = 64

[solver]
tol_linear = 1e-11
tol_eig = 1e-9
tol_series = 1e-8
tol_invert = 1e-12
max_linear_iter = 500
max_eig_iter = 400
max_invert_iter = 100

[run]
n_schedule = 1 2 4
stop_tol = 1e-7
"""


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "coeff,data,series",
    [
        ("constant", "constant", "harmonic"),
        ("linear-ramp", "bump", "log"),
        ("constant", "file", "geometric"),
        ("linear-ramp", "constant", "power-law"),
        ("constant", "bump", "custom"),
        ("linear-ramp", "file", "custom power-law"),
    ],
)
def test_config_reads_every_key_of_its_kinds(tmp_path, dim, coeff, data, series):
    # a key that loading uses without looking it up through the section
    # reader would be rejected here as unread
    grid = build_grid(dim, (0.0, 2.0), 8, (-1.0, 1.0), 6)
    write_gridfunction_csv(GridFunction(grid, np.ones(grid.node_shape)), str(tmp_path / "f.csv"))
    text = _ALWAYS_READ.format(
        dim=dim,
        coeff=coeff,
        data=data,
        series=series.split()[0],
        coeff_keys=_READ_KEYS["coeff"][coeff],
        data_keys=_READ_KEYS["data"][data],
        series_keys=_READ_KEYS["series"][series],
    )
    if dim == 1:
        text = "\n".join(
            line for line in text.splitlines()
            if not line.split(" = ")[0].endswith(("_y", "y0", "y1"))
        )
    cfg = load_config(_write(tmp_path, text))
    assert cfg.problem.grid.dim == dim
    assert cfg.problem.lambda_scale == 3.0
    assert cfg.tolerances.max_invert_iter == 100 and cfg.stop_tol == 1e-7


def test_missing_file_datum_rejected(tmp_path):
    text = MINIMAL + "\n[data]\nkind = file\npath = nowhere.csv\n"
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(_write(tmp_path, text))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/config.ini")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

ANALYZE_INI = """
[domain]
n_cells = 64

[data]
lambda_scale = 10.0

[series]
kind = log
"""

SOLVE_INI = """
[domain]
n_cells = 64

[data]
value = 2.0

[series]
kind = harmonic

[run]
n_schedule = 1 2 4 8 16 32 64
"""

FLAT_INI = """
[domain]
n_cells = 64

[data]
value = 32.0

[series]
kind = log
"""


def test_cli_analyze_stdout(tmp_path, capsys):
    cfgfile = _write(tmp_path, ANALYZE_INI)
    assert entry(["analyze", "--config", cfgfile]) == 0
    out = capsys.readouterr().out
    assert "verdict: ExistsCertified" in out
    assert "lambda_exist=" in out and "lambda_nonexist=" in out
    body = "\n".join(l for l in out.splitlines() if not l.startswith(("verdict", "bracket", "half", "#")))
    report = json.loads(body)
    assert report["verdict"] == "ExistsCertified"
    assert report["K_value"] == pytest.approx(2.0, abs=1e-7)


def test_cli_analyze_json_is_deterministic(tmp_path, capsys):
    cfgfile = _write(tmp_path, ANALYZE_INI)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert entry(["analyze", "--config", cfgfile, "--out", str(out1)]) == 0
    assert entry(["analyze", "--config", cfgfile, "--out", str(out2)]) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    cfg = load_config(cfgfile)
    assert b1.decode().splitlines()[0] == f"# porolab 0.1.0 config-sha256={cfg.config_hash}"


def test_cli_solve_writes_solution(tmp_path, capsys):
    cfgfile = _write(tmp_path, SOLVE_INI)
    out = tmp_path / "u.csv"
    assert entry(["solve", "--config", cfgfile, "--n", "64", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# porolab")
    assert lines[1] == "x,value"
    data = np.array([[float(t) for t in l.split(",")] for l in lines[2:]])
    x = data[:, 0]
    exact = -np.expm1(-x * (1 - x))
    assert np.max(np.abs(data[:, 1] - exact)) <= 1e-6


def test_cli_solve_decaying_ratio_tail(tmp_path, capsys):
    # a_m = 0.1^(m-1) underflows from m = 325 on; the inversion works on
    # a_m sigma^m = 10 instead and finds the root of Q_512 at the peak
    cfgfile = _write(
        tmp_path,
        "[domain]\nn_cells = 32\n\n[data]\nlambda_scale = 8000\n\n"
        "[series]\nkind = custom\nvalues = 1, 0.1\n",
    )
    out = tmp_path / "u.csv"
    assert entry(["solve", "--config", cfgfile, "--n", "512", "--out", str(out)]) == 0
    assert "sup u = 9.90161064951 at n=512" in capsys.readouterr().out


def test_cli_solve_underflowing_boundary_term_is_an_error(tmp_path, capsys):
    # sigma = 1e-40 scales a_8 to a subnormal and a_9, a_10 to 0 in t
    cfgfile = _write(
        tmp_path,
        "[domain]\nn_cells = 8\n\n[series]\nkind = custom\n"
        "values = 1, 1, 1, 1, 1, 1, 1, 1, 1, 1e40\n",
    )
    out = tmp_path / "u.csv"
    assert entry(["solve", "--config", cfgfile, "--n", "10", "--out", str(out)]) == 1
    assert "a_8 sigma^8 " in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_csv(tmp_path, capsys):
    cfgfile = _write(tmp_path, ANALYZE_INI)
    out = tmp_path / "s.csv"
    code = entry(
        ["sweep", "--config", cfgfile, "--lambda-min", "8", "--lambda-max", "20",
         "--steps", "4", "--out", str(out)]
    )
    assert code == 0
    assert "bracket:" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[1] == "lambda,verdict"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 4
    assert rows[0][1] == "ExistsCertified"
    assert rows[-1][1] == "NonexistenceProven"


def test_cli_flatzone_ok(tmp_path, capsys):
    cfgfile = _write(tmp_path, FLAT_INI)
    out = tmp_path / "zone.csv"
    assert entry(["flatzone", "--config", cfgfile, "--n-max", "200", "--out", str(out)]) == 0
    assert "flat zone: OK" in capsys.readouterr().out
    mask_lines = out.read_text().splitlines()
    assert mask_lines[1] == "x,value"
    summary = json.loads(
        "\n".join(l for l in (tmp_path / "zone.json").read_text().splitlines() if not l.startswith("#"))
    )
    assert summary["status"] == "OK"
    assert abs(summary["measure"] - math.sqrt(2) / 2) <= 2 / 64
    assert summary["n_large"] == 200


def test_cli_flatzone_not_applicable(tmp_path, capsys):
    cfgfile = _write(tmp_path, SOLVE_INI)
    out = tmp_path / "zone.csv"
    assert entry(["flatzone", "--config", cfgfile, "--n-max", "10", "--out", str(out)]) == 0
    assert "NotApplicable" in capsys.readouterr().out
    summary = json.loads(
        "\n".join(l for l in (tmp_path / "zone.json").read_text().splitlines() if not l.startswith("#"))
    )
    assert summary["status"] == "NotApplicable"
    # mask CSV still written, all zeros
    data = [l for l in out.read_text().splitlines()[2:]]
    assert all(float(l.split(",")[1]) == 0.0 for l in data)


@pytest.mark.parametrize("out", ["./zone", "run.v2/zone"])
def test_cli_flatzone_summary_for_out_without_extension(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    cfgfile = _write(tmp_path, FLAT_INI)
    assert entry(["flatzone", "--config", cfgfile, "--n-max", "10", "--out", out]) == 0
    capsys.readouterr()
    assert (tmp_path / out).is_file()
    assert (tmp_path / (out + ".json")).is_file()
    assert not (tmp_path / ".json").exists() and not (tmp_path / "run.json").exists()


BUDGET_INI = """
[domain]
dim = 2
n_cells = 16

[data]
lambda_scale = 40.0

[series]
kind = log
"""


def _json_body(path):
    return json.loads(
        "\n".join(l for l in path.read_text().splitlines() if not l.startswith("#"))
    )


def _count_calls(monkeypatch, module_name, name):
    """Wrap ``name`` in every porolab module that binds it; return the call log."""
    original = getattr(sys.modules[module_name], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "porolab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "command,extra,eigensolves,linear_solves",
    [
        ("analyze", [], 2, 2),
        ("sweep", ["--lambda-min", "1", "--lambda-max", "50", "--steps", "5"], 1, 1),
        ("solve", ["--n", "64"], 0, 1),
        ("flatzone", ["--n-max", "64"], 0, 1),
    ],
)
def test_cli_solver_call_budget(
    tmp_path, monkeypatch, capsys, command, extra, eigensolves, linear_solves
):
    eigs = _count_calls(monkeypatch, "porolab.spectral", "principal_eigenpair")
    solves = _count_calls(monkeypatch, "porolab.elliptic", "solve_linear")
    cfgfile = _write(tmp_path, BUDGET_INI)
    out = [] if command == "analyze" else ["--out", str(tmp_path / "out.csv")]
    assert entry([command, "--config", cfgfile, *extra, *out]) == 0
    stdout = capsys.readouterr().out
    assert (len(eigs), len(solves)) == (eigensolves, linear_solves)
    if command == "analyze":  # the second pair pays for this line
        assert "half-resolution check: delta(sup_v1)=" in stdout


def test_cli_analyze_and_flatzone_share_the_flat_zone(tmp_path, capsys):
    cfgfile = _write(tmp_path, BUDGET_INI)
    report_path, zone_path = tmp_path / "r.json", tmp_path / "zone.csv"
    assert entry(["analyze", "--config", cfgfile, "--out", str(report_path)]) == 0
    assert entry(
        ["flatzone", "--config", cfgfile, "--n-max", "64", "--out", str(zone_path)]
    ) == 0
    capsys.readouterr()
    measure = _json_body(report_path)["flat_zone_measure"]
    assert measure > 0.0
    assert _json_body(tmp_path / "zone.json")["measure"] == measure


@pytest.mark.parametrize(
    "series,k_status,verdict",
    [
        ("kind = custom\nvalues = 1, 0.5", "divergent", "ExistsAllData"),
        ("kind = custom\nvalues = 1, 49", "divergent", "ExistsAllData"),
        ("kind = custom\nvalues = 1, 0.02", "divergent", "ExistsAllData"),
        ("kind = geometric\nratio = 49", "divergent", "ExistsAllData"),
        (
            "kind = custom\nvalues = 1, 0.125\ntail = power-law\ntail_exponent = -3",
            "finite",
            "NonexistenceProven",
        ),
        ("kind = power-law\nexponent = -1.5", "finite", "NonexistenceProven"),
    ],
)
def test_cli_analyze_decides_k_from_the_tail_rule(tmp_path, capsys, series, k_status, verdict):
    cfgfile = _write(
        tmp_path, f"[domain]\nn_cells = 64\n\n[data]\nlambda_scale = 1e5\n\n[series]\n{series}\n"
    )
    report_path = tmp_path / "r.json"
    assert entry(["analyze", "--config", cfgfile, "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = _json_body(report_path)
    assert (report["K_status"], report["verdict"]) == (k_status, verdict)
    assert report["sigma_method"] == "closed-form"


ZERO_DATUM_INI = """
[domain]
n_cells = 32

[data]
value = 0

[series]
kind = log
"""


@pytest.mark.parametrize(
    "command,extra",
    [
        ("analyze", []),
        ("sweep", ["--lambda-min", "1", "--lambda-max", "50", "--steps", "3"]),
    ],
)
def test_cli_zero_datum_exists_for_all_loads(tmp_path, monkeypatch, capsys, command, extra):
    eigs = _count_calls(monkeypatch, "porolab.spectral", "principal_eigenpair")
    cfgfile = _write(tmp_path, ZERO_DATUM_INI)
    out = tmp_path / "out.csv"
    assert entry([command, "--config", cfgfile, *extra, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert eigs == []
    assert "lambda_exist=inf lambda_nonexist=inf" in stdout
    assert "half-resolution" not in stdout
    if command == "analyze":
        assert _json_body(out)["verdict"] == "ExistsAllData"
    else:
        rows = out.read_text().splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["ExistsAllData"] * 3


def test_cli_analyze_skips_half_resolution_when_coarse_datum_vanishes(tmp_path, capsys):
    # f = 1 on odd nodes only: every other node carries f = 0, so the coarse
    # problem has v1 = 0 and no lambda1 to compare with
    g = build_grid(1, n_cells=16)
    f = GridFunction(grid=g, values=(np.arange(g.n_nodes) % 2).astype(float))
    write_gridfunction_csv(f, str(tmp_path / "f.csv"))
    text = "[domain]\nn_cells = 16\n\n[data]\nkind = file\npath = f.csv\n\n[series]\nkind = log\n"
    out = tmp_path / "report.json"
    assert entry(["analyze", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "half-resolution check:" not in stdout
    assert _json_body(out)["lambda1"] is not None


@pytest.mark.parametrize(
    "bounds", [["nan", "nan"], ["nan", "50"], ["1", "inf"], ["-inf", "1"]]
)
def test_cli_sweep_rejects_nonfinite_bounds(tmp_path, capsys, bounds):
    cfgfile = _write(tmp_path, ANALYZE_INI)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", cfgfile, f"--lambda-min={bounds[0]}",
            f"--lambda-max={bounds[1]}", "--steps", "3", "--out", str(out)]
    assert entry(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # 1: configuration problems, including usage errors
    assert entry(["analyze", "--config", "/no/such.ini"]) == 1
    assert entry(["analyze"]) == 1
    assert entry([]) == 1
    cfgfile = _write(tmp_path, ANALYZE_INI)
    assert entry(
        ["sweep", "--config", cfgfile, "--lambda-min", "5", "--lambda-max", "1",
         "--steps", "3", "--out", str(tmp_path / "x.csv")]
    ) == 1
    err = capsys.readouterr().err
    assert "error (config)" in err

    # 3: invalid sequence
    bad = _write(tmp_path, "[series]\nkind = custom\nvalues = 0, 1\n", name="bad.ini")
    assert entry(["analyze", "--config", bad]) == 3
    assert "error (series)" in capsys.readouterr().err
    # sigma = 1/ratio is +inf in float64
    tiny = _write(tmp_path, "[series]\nkind = geometric\nratio = 1e-320\n", name="tiny.ini")
    assert entry(["analyze", "--config", tiny]) == 3
    assert "radius of convergence" in capsys.readouterr().err

    # 2: solver failure (iteration cap of 1)
    slow = _write(
        tmp_path,
        ANALYZE_INI + "\n[solver]\nmax_linear_iter = 1\n",
        name="slow.ini",
    )
    assert entry(["analyze", "--config", slow]) == 2
    assert "error (solver)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coeff, datum",
    [
        ("kind = linear-ramp\nbase = 1\nslope_x = 1e308\n", 0.5),
        ("value = 1\n", np.nan),
        ("value = 1\n", np.inf),
    ],
)
def test_cli_non_finite_inputs_are_config_errors(tmp_path, capsys, coeff, datum):
    # an overflowing coefficient ramp or a non-finite datum is rejected at
    # load, not reported later as a solver that failed to converge
    values = np.full(5, 0.5)
    values[2] = datum
    write_gridfunction_csv(
        GridFunction(grid=build_grid(1, (0.0, 2.0), 4), values=values), str(tmp_path / "f.csv")
    )
    cfgfile = _write(
        tmp_path,
        "[domain]\nx1 = 2\nn_cells = 4\n\n[coeff]\n" + coeff
        + "\n[data]\nkind = file\npath = f.csv\n\n[series]\nkind = log\n",
    )
    if "1e308" in coeff:
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert entry(["analyze", "--config", cfgfile]) == 1
    else:
        assert entry(["analyze", "--config", cfgfile]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first_row, message, headerless",
    [
        ("-nan,0.5", "must be finite", False),
        ("nan,0.5", "must be finite", False),
        ("nan,0.5", "must be finite", True),
        ("inf,0.5", "must be finite", True),
        ("0.0,abc", "could not convert", False),
        ("0.0,0.5,0.5", "inhomogeneous", False),
    ],
)
def test_cli_malformed_data_rows_are_config_errors(
    tmp_path, capsys, first_row, message, headerless
):
    # a NaN coordinate passes a comparison with the grid, and a data row
    # that starts with a letter is not a header, not even in a file
    # without one, where it comes first
    path = tmp_path / "f.csv"
    write_gridfunction_csv(
        GridFunction(grid=build_grid(1, (0.0, 1.0), 4), values=np.full(5, 0.5)), str(path)
    )
    lines = path.read_text().splitlines()
    if headerless:
        del lines[0]
    lines[0 if headerless else 1] = first_row
    path.write_text("\n".join(lines) + "\n")
    cfgfile = _write(
        tmp_path, "[domain]\nn_cells = 4\n\n[data]\nkind = file\npath = f.csv\n\n"
        "[series]\nkind = log\n",
    )
    assert entry(["analyze", "--config", cfgfile]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "exp.ini", "--out", "missing_dir/r.json"],
        ["solve", "--config", "exp.ini", "--n", "2", "--out", "missing_dir/u.csv"],
        ["analyze", "--config", "."],
    ],
)
def test_cli_os_errors_are_config_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, ANALYZE_INI)
    assert entry(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and err.count("\n") == 1


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    assert "porolab 0.1.0" in capsys.readouterr().out
