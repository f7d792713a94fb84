"""Smoke tests of the benchmark itself, at tiny degrees.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once with tracing off and once with tracing on; every
named metric must be present with its unit and no task may fail.  A
deliberately wrong known answer must raise the failure count.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

RUN = Path(run.__file__)


def _result(workload, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in res["metrics"].items()} == units
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"]


def test_wrong_answer_is_counted():
    run.import_voa()
    import workloads
    tasks = workloads.tasks_for("correlate", 3, smoke=True)
    assert all(r.ok for r in run.run_pass(tasks))
    tasks[0] = dataclasses.replace(tasks[0], expect="not the answer")
    results = run.run_pass(tasks)
    assert sum(not r.ok for r in results) == 1
    assert json.loads(run.result_line(results, {}, {}))["failed"] == 1


def test_raising_task_is_counted():
    run.import_voa()
    import workloads
    task = workloads.Task("raises", lambda: None, lambda _: 1 / 0, 0)
    results = run.run_pass([task])
    assert [r.ok for r in results] == [False]


def test_missing_sources_stop_the_run(monkeypatch):
    monkeypatch.setattr(run, "ROOT", run.HERE)
    with pytest.raises(SystemExit) as exc:
        run.import_voa()
    assert "no voa sources" in str(exc.value)
