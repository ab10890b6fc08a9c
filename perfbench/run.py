"""Benchmark of the porolab CLI: timed end-to-end runs and a traced per-layer mode.

    python3 perfbench/run.py --workload plane-flatzone --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout that holds this file;
nothing needs building.  Load model: one client, closed loop.  Each command of
the workload's list (analyze, sweep, solve, flatzone) starts when the previous
one returns, called through ``porolab.cli.entry`` in this process, which
starts no threads.  Passes over the list repeat until at least ``--seconds``
of pass time is spent, and at least three times.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports its per-layer metrics, with
spans recorded around porolab's public functions by ``tracer.py``.  The last
line of standard output is the result object; the line before it records the
host, the known-defect probe, the samples and any failures.  Exit code 2
means the benchmark could not run at all (for example, no ``src/porolab``).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads OpenBLAS.  On a 2-core host the
# second OpenBLAS thread makes the CG-bound commands slower on average and
# bimodal (the same analyze takes 1.9 s or 2.8 s depending on what else runs
# on the machine); with one thread they stay within about 7%.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COMMAND_PREFIX, Tracer
from workloads import COMMANDS, WORKLOADS, Workload, check_pass, probe_config

# Set-up samples are taken in groups before each pass, so their median covers
# the whole run rather than one moment of a host whose speed drifts.
SETUP_PER_PASS = 3
SUBPROCESS_TIMEOUT = 60.0
MIN_PASSES = 3  # medians need three samples; two also let outputs be compared
SELF_TIME_SLACK = 1e-9  # seconds; float error when self times are summed

# fresh interpreter: what every CLI invocation pays before its command runs
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import porolab.cli
from porolab.config import load_config
load_config(sys.argv[2])
"""

PROBE_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from porolab.cli import entry
sys.exit(entry(["analyze", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


@dataclass
class CommandRun:
    command: str
    rc: int | None  # None: the command raised instead of returning
    seconds: float
    stdout: str
    stderr: str
    span: int | None  # its root span when traced
    digests: tuple[str | None, ...] = ()


@dataclass
class Pass:
    traced: bool
    seconds: float
    runs: list[CommandRun] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the copy numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _tree_sha256(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path, src: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(root),
        "src_sha256": _tree_sha256(src / "porolab"),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Fresh-interpreter measurements
# ---------------------------------------------------------------------------


def _python(code: str, *args: str) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    return proc, time.perf_counter() - start


def measure_setup(src: Path, config: Path) -> tuple[list[float], list[str]]:
    samples, errors = [], []
    for _ in range(SETUP_PER_PASS):
        proc, seconds = _python(SETUP_CODE, str(src), str(config))
        if proc.returncode == 0:
            samples.append(seconds)
        else:
            errors.append(f"setup exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return samples, errors


def known_defect_probe(src: Path, work: Path) -> dict:
    """One untimed ``analyze`` at 256^2 with default tolerances; never gates."""
    config = work / "probe.ini"
    config.write_text(probe_config())
    record = {"command": "analyze", "grid": "256x256", "tolerances": "defaults"}
    try:
        proc, _ = _python(PROBE_CODE, str(src), str(config), str(work / "probe.json"))
    except subprocess.TimeoutExpired:
        return {**record, "exit_code": None, "message": "timed out"}
    lines = proc.stderr.strip().splitlines()
    return {**record, "exit_code": proc.returncode, "message": lines[-1] if lines else ""}


def peak_rss_mb() -> float:
    """High-water RSS of this process (VmHWM, which exec does not inherit)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# Passes over the command list
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str | None:
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
            return digest.hexdigest()
    except FileNotFoundError:
        return None


def run_pass(entry, workload: Workload, config: Path, work: Path, tracer: Tracer | None) -> Pass:
    runs = []
    start = time.perf_counter()
    for command in COMMANDS:
        argv = workload.argv(command, config, work)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.open(COMMAND_PREFIX + command) if tracer else None
        t = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = entry(argv)
        except Exception:  # a crashing command is a failed operation
            rc = None
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - t
            if tracer:
                tracer.close(span)
        runs.append(CommandRun(command, rc, seconds, out.getvalue(), err.getvalue(), span))
    elapsed = time.perf_counter() - start
    files = workload.outputs(work)
    for run in runs:
        run.digests = tuple(_sha256(p) for p in files[run.command])
    return Pass(traced=tracer is not None, seconds=elapsed, runs=runs)


def judge(passes: list[Pass], problems: dict[str, list[str]]) -> list[str]:
    """One line per failed operation: nonzero exit, a failed output check, or
    outputs that differ from the first pass's (the program promises
    byte-identical files)."""
    first = {r.command: r for r in passes[0].runs}
    failures = []
    for k, p in enumerate(passes, 1):
        for r in p.runs:
            ref = first[r.command]
            if r.rc != 0:
                lines = r.stderr.strip().splitlines()
                why = f"exit {r.rc}: {lines[-1] if lines else ''}"
            elif problems[r.command]:
                why = "; ".join(problems[r.command])
            elif (r.digests, r.stdout) != (ref.digests, ref.stdout):
                why = "output differs from pass 1"
            else:
                continue
            failures.append(f"pass {k} {r.command}: {why}")
    return failures


def measure(entry, workload, seed, config_text, config, work, seconds, tracer, before_pass):
    """Run passes until at least ``seconds`` of pass time is spent; check the
    first pass.  The pass count follows from the pass time, so a faster
    program gets more samples rather than a shorter run.

    ``before_pass`` runs, untimed, before each pass.  In traced mode every
    second pass runs with the tracer installed, and the tracer's self-test
    findings are returned with the passes.
    """
    passes: list[Pass] = []
    problems = None
    self_test = {"leaks": set(), "unrestored": set(), "rebound": {}}
    while True:
        before_pass()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                self_test["leaks"].update(tracer.leaks())
                self_test["rebound"] = dict(tracer.rebound)
                passes.append(run_pass(entry, workload, config, work, tracer))
            self_test["unrestored"].update(tracer.unrestored())
        else:
            passes.append(run_pass(entry, workload, config, work, None))
        if problems is None:  # later passes overwrite the files
            stdout = {r.command: r.stdout for r in passes[0].runs}
            try:
                problems = check_pass(workload, seed, config_text, workload.outputs(work), stdout)
            except Exception:  # malformed output: every command is suspect
                problems = {c: ["check raised: " + traceback.format_exc(limit=1)] for c in COMMANDS}
        if len(passes) >= MIN_PASSES and sum(p.seconds for p in passes) >= seconds:
            return passes, problems, self_test


def tracer_self_test(tracer: Tracer, passes: list[Pass], found: dict, per_pass: list[dict]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = {r.command: r.digests for r in passes[0].runs}
    gaps = [tracer.self_time_gap(r.span) for p in traced for r in p.runs]
    # a span name counts its calls in "<name>_calls"; a cg counter in its own key
    silent = sorted(
        name
        for name in found["rebound"]
        if not any(t.get(f"{name}_calls", t.get(name, 0)) for t in per_pass)
    )
    return {
        "rebound": found["rebound"],
        "every_name_rebound": all(n >= 1 for n in found["rebound"].values()) and not found["leaks"],
        "left_unwrapped": sorted(found["leaks"]),
        "originals_restored": not found["unrestored"],
        "left_wrapped": sorted(found["unrestored"]),
        "traced_outputs_identical": all(
            r.digests == untraced[r.command] for p in traced for r in p.runs
        ),
        "never_called": silent,
        "self_time_gap_s": max(gaps),
        "self_times_sum_to_command": max(gaps) <= SELF_TIME_SLACK,
    }


def run(args, root: Path, src: Path, work: Path, spec: dict) -> tuple[dict, dict]:
    from porolab.cli import entry

    workload = WORKLOADS[args.workload]
    config_text = workload.config(args.seed)
    config = work / "experiment.ini"
    config.write_text(config_text)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_record(root, src, args.seed),
        "known_defect_probe": known_defect_probe(src, work),
    }
    values: dict[str, float] = {}
    failures: list[str] = []
    setup: list[float] = []

    def sample_setup():
        samples, errors = measure_setup(src, config)
        setup.extend(samples)
        failures.extend(errors)

    tracer = Tracer() if args.trace else None
    passes, problems, found = measure(
        entry, workload, args.seed, config_text, config, work, args.seconds, tracer,
        before_pass=(lambda: None) if args.trace else sample_setup,
    )
    failed_ops = judge(passes, problems)
    failures += failed_ops
    attempted = sum(len(p.runs) for p in passes)
    failed = len(failed_ops)

    plain = [p for p in passes if not p.traced]
    detail["passes"] = len(passes)
    detail["pass_s"] = {
        "untraced": [p.seconds for p in plain],
        "traced": [p.seconds for p in passes if p.traced],
    }
    detail["command_s"] = {c: [r.seconds for p in plain for r in p.runs if r.command == c] for c in COMMANDS}

    if args.trace:
        per_pass = [tracer.totals({r.span for r in p.runs}) for p in passes if p.traced]
        values["trace.overhead_ratio"] = statistics.median(
            p.seconds for p in passes if p.traced
        ) / statistics.median(p.seconds for p in plain)
        detail["count_spread"] = {}
        for m in spec["per_layer"]:
            if m["name"] in values:
                continue
            samples = [t.get(m["name"], 0) for t in per_pass]
            values[m["name"]] = statistics.median(samples)
            if m["unit"] != "s":
                detail["count_spread"][m["name"]] = [min(samples), max(samples)]
        detail["tracer_self_test"] = self_test = tracer_self_test(tracer, passes, found, per_pass)
        for key in ("every_name_rebound", "originals_restored", "traced_outputs_identical",
                    "self_times_sum_to_command"):
            if not self_test[key]:
                failures.append(f"tracer self-test: {key} is false")
        if self_test["never_called"]:
            failures.append(f"tracer self-test: never called {self_test['never_called']}")
        trace_file = root / "perfbench" / "out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        detail["trace_file"] = trace_file.relative_to(root).as_posix()
    else:
        if not setup:
            raise RuntimeError(f"no fresh interpreter could load porolab: {failures[0]}")
        values["setup_s"] = statistics.median(setup)
        detail["setup_s_samples"] = setup
        for c in COMMANDS:
            values[f"{c}_s"] = statistics.median(detail["command_s"][c])
        values["run_s"] = statistics.median(p.seconds for p in plain)
        values["peak_rss_mb"] = peak_rss_mb()
        values["ok_ratio"] = (attempted - failed) / attempted

    detail["failures"] = failures
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "porolab" / "__init__.py").is_file():
        print(f"perfbench: no porolab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import porolab

    if Path(porolab.__file__).resolve().parent != (src / "porolab").resolve():
        print(f"perfbench: porolab was imported from {porolab.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result, detail = run(args, root, src, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
