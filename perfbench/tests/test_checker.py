"""Self-tests of the benchmark: the correctness gate is live, the seeded
instances keep their known answers, and the tracer covers the package.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def env():
    run.WORK.mkdir(exist_ok=True)
    return run.child_env()


def write_instance(doc: dict, name: str) -> Path:
    path = run.WORK / name
    path.write_text(json.dumps(doc))
    return path


def test_identity_conjugate_is_the_shipped_instance_and_renders_the_golden_figure(env):
    one, zero = Fraction(1), Fraction(0)
    doc = instances.conjugate((one, zero, zero, one))
    assert doc == instances.SHIPPED
    path = write_instance(doc, "identity.json")
    rc, out, err, _, _ = run.run_process(
        [sys.executable, "-m", "schottky_limits.cli", "render", "--input", str(path)], env)
    assert rc == 0, err
    assert out == instances.load_golden()["render.svg"]


def test_seeded_instances_are_reproducible_and_admissible():
    for seed in range(20):
        a, b = instances.make_instance(seed), instances.make_instance(seed)
        assert a == b
        assert a.eta_lo < a.eta_hi and len(a.eta_strings()) == 1


def test_overlapping_circles_exit_1_with_disks_not_disjoint(env):
    inst = instances.make_instance(5)
    doc = json.loads(json.dumps(inst.doc))
    a, ap = doc["circles"]["C_a"], doc["circles"]["C_a_prime"]
    gap = abs(Fraction(a["center"]) - Fraction(ap["center"]))
    a["radius"] = str(gap)  # C_a now reaches past the centre of C_a_prime
    path = write_instance(doc, "overlap.json")
    job = run.make_job("deep-geometry", inst, path, instances.load_golden())
    render_step = job[1]
    result = run.run_job([render_step], env)
    assert result.failure is not None
    assert "exit 1" in result.failure and "disks-not-disjoint" in result.failure


def test_flipped_byte_in_golden_report_raises_failed_ratio(env):
    golden = instances.load_golden()
    report = bytearray(golden["report.json"])
    report[len(report) // 2] ^= 0x01
    golden["report.json"] = bytes(report)
    inst = instances.make_instance(0)
    job = run.make_job("shipped-report", inst, Path("unused"), golden)
    res = run.closed_loop(job, env, seconds=1)
    assert res["attempted"] >= 1
    assert len(res["failures"]) / res["attempted"] > 0
    assert all("golden" in why for why in res["failures"])


def test_wrong_h_fails_the_eta_check(env):
    inst = instances.make_instance(7)
    path = write_instance(inst.doc, "right.json")
    right = run.make_job("deep-geometry", inst, path, {})[0]
    rc, out, err, _, _ = run.run_process(
        [sys.executable, "-m", "schottky_limits.cli", *right.args], env)
    assert right.check(rc, out, err) is None
    wrong_inst = instances.make_instance(7, h=instances.draw_h(8))
    assert wrong_inst.h != inst.h
    wrong = run.make_job("deep-geometry", wrong_inst, path, {})[0]
    assert "eta" in wrong.check(rc, out, err)


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_traced_runs_stress_their_intended_layers():
    report = traced("shipped-report")
    assert report["limits.orbit_samples.count"] == 13121
    assert report["mobius.hyp_dist.calls"] >= 13121
    deep = traced("deep-geometry")
    assert deep["limits.qi_check_s"] == 0 and deep["limits.orbit_samples.count"] == 0
    assert deep["mobius.entry_bits.max"] > 1000
    subgroups = traced("subgroup-enumeration")
    assert subgroups["schottky.nested_disk.calls"] == 0
    assert subgroups["freewords.words_checked"] == 17568


def test_a_binding_the_installer_misses_fails_loudly():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracer, schottky_limits.freewords as fw\n"
        "fw._held = [fw.reduce]\n"
        "try:\n"
        "    tracer.Tracer().install()\n"
        "except tracer.TraceError as exc:\n"
        "    print('TraceError', exc)\n"
    ) % (str(BENCH), str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "TraceError" in proc.stdout and "freewords.reduce" in proc.stdout, proc.stderr


def test_an_expected_function_without_calls_fails_loudly():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import run, tracer\n"
        "run.SPEC['workloads']['shipped-report']['expect_calls'].append('limits.count_orbit_in_ball')\n"
        "try:\n"
        "    run.main(['--workload', 'shipped-report', '--seed', '1', '--seconds', '1', '--trace', '1'])\n"
        "except tracer.TraceError as exc:\n"
        "    print('TraceError', exc)\n"
    ) % str(BENCH)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    assert "TraceError" in proc.stdout and "count_orbit_in_ball" in proc.stdout, proc.stderr
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_metrics_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.SPEC["workloads"])
    for w in bench["workloads"]:
        assert w["why"] == run.SPEC["workloads"][w["name"]]["why"]
    spec = [{k: m[k] for k in ("name", "unit", "better")} for m in run.SPEC["per_layer"]]
    assert bench["per_layer"] == spec


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped-report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
