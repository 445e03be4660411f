"""Benchmark of the schottky-limits verifier, driven through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from the
checkout's `src/`, never from an installed copy.

--trace 0 runs the workload as a closed loop with one client: each job is a
fresh `python -m schottky_limits.cli ...` interpreter (two for workloads with
two commands), started only after the previous job ended, as a user runs it.
Every job's exit status and stdout are checked against a known answer. It
reports the end-to-end metrics.

--trace 1 replays the same jobs in this interpreter, first untraced and then
with timing and counting wrappers around every public function of the seven
traced modules (see tracer.py). It checks that traced outputs are
byte-identical to untraced ones and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable table and the run's
environment record. Workloads, their reasons and the per-layer metrics, with
the end-to-end metric each should move, are defined in metrics.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((BENCH / "metrics.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])
SETUP_REPEATS = 9
DEEP_N_MAX = 24

Check = Callable[[int, bytes, bytes], Optional[str]]


@dataclass(frozen=True)
class Step:
    args: Tuple[str, ...]
    check: Check


def make_job(workload: str, inst: instances.Instance, input_path: Path,
             golden: Dict[str, bytes]) -> List[Step]:
    """The commands one job runs, in order, each with its known-answer check."""
    inp = ("--input", str(input_path))
    n = str(DEEP_N_MAX)
    if workload == "shipped-report":
        return [Step(("report",), instances.check_golden(golden["report.json"]))]
    if workload == "deep-geometry":
        return [
            Step(("construct", "--n-max", n) + inp, instances.check_construct(inst, DEEP_N_MAX)),
            Step(("render", "--n-max", n) + inp, instances.check_render(DEEP_N_MAX)),
        ]
    if workload == "subgroup-enumeration":
        return [
            Step(("freeness", "--max-index", "6", "--max-syllables", "4"),
                 instances.check_golden(golden["freeness.json"])),
            Step(("intersect", "--max-index", "6", "--max-syllables", "3") + inp,
                 instances.check_golden(golden["intersect.json"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- subprocess jobs -----------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The user's environment, pointed at the checkout's src/.

    Bytecode is written, under the work directory, so that compilation is
    paid once per checkout (in the untimed warm-up), as users pay it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: Sequence[str], env: Dict[str, str]) -> Tuple[int, bytes, bytes, float, int]:
    """Run one process to completion: exit code, stdout, stderr, wall s, peak RSS kB."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss


@dataclass
class JobResult:
    wall_s: float
    rss_kb: int
    failure: Optional[str]


def run_job(job: List[Step], env: Dict[str, str]) -> JobResult:
    """Run the job's commands as processes, then check their outputs."""
    outputs, rss = [], 0
    t0 = perf_counter()
    for step in job:
        rc, out, err, _, step_rss = run_process(
            [sys.executable, "-m", "schottky_limits.cli", *step.args], env)
        outputs.append((rc, out, err))
        rss = max(rss, step_rss)
    wall = perf_counter() - t0
    return JobResult(wall, rss, check_outputs(job, outputs))


def check_outputs(job: List[Step], outputs) -> Optional[str]:
    """The first step whose (exit code, stdout, stderr) misses its known answer."""
    for step, (rc, out, err) in zip(job, outputs):
        why = step.check(rc, out, err)
        if why is not None:
            return f"{step.args[0]}: {why}"
    return None


def measure_setup(env: Dict[str, str]) -> Tuple[float, str]:
    """Median wall time of a fresh interpreter importing the CLI, and the
    resolved package file. One untimed import first writes the bytecode, as
    users pay compilation once per checkout, not per run."""
    argv = [sys.executable, "-c",
            "import schottky_limits, schottky_limits.cli; print(schottky_limits.__file__)"]
    times, resolved = [], ""
    for i in range(SETUP_REPEATS + 1):
        rc, out, err, wall, _ = run_process(argv, env)
        if rc != 0:
            raise SystemExit(f"cannot import schottky_limits from {SRC}: "
                             f"{err.decode(errors='replace').strip()[-300:]}")
        resolved = out.decode().strip()
        if i:
            times.append(wall)
    check_resolved(resolved)
    return statistics.median(times), resolved


def check_resolved(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "schottky_limits").resolve():
        raise SystemExit(f"schottky_limits resolved to {path}, not the checkout's src/")


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: value,
    percentile and sample count. With ten samples or fewer no percentile
    qualifies and the lowest sample (the most beyond it) is returned."""
    s = sorted(samples)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def closed_loop(job: List[Step], env: Dict[str, str], seconds: float) -> dict:
    """One client: jobs back to back until `seconds` have passed (at least one).

    The untimed first import in measure_setup is the warm-up: it writes the
    bytecode of every module a job loads.
    """
    results: List[JobResult] = []
    t_start = perf_counter()
    while not results or perf_counter() - t_start < seconds:
        results.append(run_job(job, env))
    elapsed = perf_counter() - t_start
    walls = [r.wall_s for r in results]
    tail_s, tail_pct, _ = tail(walls)
    return {
        "walls": walls,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "jobs_per_s": len(results) / elapsed,
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
        "attempted": len(results),
        "failures": [r.failure for r in results if r.failure],
    }


# -- traced in-process replay ----------------------------------------------------

def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import schottky_limits
    import schottky_limits.cli as cli
    check_resolved(schottky_limits.__file__)
    return cli


def replay(cli, job: List[Step]) -> List[Tuple[int, bytes, bytes]]:
    """Run the job's commands in this interpreter, capturing what a process
    would have printed and its exit status."""
    outputs = []
    for step in job:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=list(step.args), prog_name="schottky-limits",
                              standalone_mode=False)
                rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                traceback.print_exc()
                rc = 1
        outputs.append((rc, out.getvalue().encode(), err.getvalue().encode()))
    return outputs


def layer_metrics(t: tracing.Tracer) -> Dict[str, float]:
    """Per-layer values of one traced job, named as in metrics.json."""
    values: Dict[str, float] = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        base = name.rsplit(".", 1)[0]
        if name == "trace.overhead_ratio":
            continue
        if name.endswith(".self_s") and base in tracing.MODULES:
            values[name] = t.module_self_time(base)
        elif name.endswith(".calls"):
            values[name] = t.calls[base]
        elif name.endswith(".max"):
            values[name] = t.maxima[base]
        elif name == "limits.enumerate_subgroup.distinct_ratio":
            products = t.edges[("limits.enumerate_subgroup", "freewords.reduce")]
            values[name] = t.counts["limits.enumerate_subgroup.distinct"] / products if products else 0.0
        elif name.endswith("_s"):
            values[name] = t.total[name[:-2]]
        else:
            values[name] = t.counts[name]
    return values


def traced_run(workload: str, job: List[Step], seconds: float, seed: int) -> dict:
    """Untraced replays for the first half of the time, traced for the rest."""
    cli = import_cli()
    expected = SPEC["workloads"][workload]["expect_calls"]
    failures = []
    attempted = 0

    def attempt(outputs, reference=None):
        nonlocal attempted
        attempted += 1
        why = check_outputs(job, outputs)
        if why is None and reference is not None and outputs != reference:
            why = "traced output differs from the untraced output"
        if why:
            failures.append(why)

    reference = replay(cli, job)  # warm-up
    attempt(reference)
    untraced: List[float] = []
    t_start = perf_counter()
    while not untraced or perf_counter() - t_start < seconds / 2:
        t0 = perf_counter()
        outputs = replay(cli, job)
        untraced.append(perf_counter() - t0)
        attempt(outputs, reference)

    t = tracing.Tracer()
    t.install()
    traced: List[float] = []
    per_job: List[Dict[str, float]] = []
    while not traced or perf_counter() - t_start < seconds:
        t.reset()
        t.job_id = len(traced) + 1
        t0 = perf_counter()
        outputs = t.span("job", replay, cli, job)
        traced.append(perf_counter() - t0)
        attempt(outputs, reference)
        missing = tracing.uncalled(t, expected)
        if missing:
            raise tracing.TraceError(f"{workload}: expected functions recorded no calls: {missing}")
        per_job.append(layer_metrics(t))

    metrics = {name: statistics.median(j[name] for j in per_job) for name in per_job[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "spans": [dict(zip(("job", "id", "parent", "name", "start", "end"), s)) for s in t.spans],
        "calls": dict(t.calls), "total_s": dict(t.total), "self_s": dict(t.self_time),
    }, indent=1))
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "jobs": len(traced)}


# -- entry point -------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int, resolved: str, inst: instances.Instance) -> dict:
    return {
        "schottky_limits": resolved,
        "commit": git_commit(),
        "seed": seed,
        "h": [str(v) for v in inst.h],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "schottky_limits" / "cli.py").is_file():
        print(f"no program source at {SRC / 'schottky_limits'}; run from a checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    inst = instances.make_instance(args.seed)
    input_path = WORK / f"instance-{args.seed}.json"
    input_path.write_text(json.dumps(inst.doc, indent=2) + "\n")
    job = make_job(args.workload, inst, input_path, instances.load_golden())

    if args.trace:
        import_cli()
        env_record = environment(args.seed, sys.modules["schottky_limits"].__file__, inst)
        res = traced_run(args.workload, job, args.seconds, args.seed)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        metrics = {name: metric(res["metrics"][name], units[name]) for name in units}
        table = [f"traced jobs: {res['jobs']}"]
    else:
        env = child_env()
        setup_s, resolved = measure_setup(env)
        env_record = environment(args.seed, resolved, inst)
        res = closed_loop(job, env, args.seconds)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "job_p50_s": metric(res["job_p50_s"], "s"),
            "job_tail_s": metric(res["job_tail_s"], "s"),
            "jobs_per_s": metric(res["jobs_per_s"], "1/s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        table = [
            "job walls s: " + " ".join(f"{w:.3f}" for w in res["walls"]),
            f"job_tail_s is p{res['tail_percentile']:.0f} of {len(res['walls'])} timed jobs",
            f"failed_ratio {len(res['failures'])}/{res['attempted']}",
        ]

    failed = len(res["failures"])
    print(f"# workload {args.workload}")
    print("# env " + json.dumps(env_record))
    for line in table:
        print("# " + line)
    for why in res["failures"][:5]:
        print("# FAILED " + why)
    for name, m in metrics.items():
        print(f"# {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
