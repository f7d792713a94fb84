"""Benchmark for voa: one workload, with tracing off or on.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run is single-process, single-thread and closed-loop: it runs whole
passes over the workload's task list, one task after the other, as many
as fit in --seconds (at least one), and checks every answer.
It prints a summary and, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones (set-up, pass, task and
memory figures).  Times are reported in seconds at a reference speed: the
machine's speed drifts, and reference.py measures and divides it out; the
summary also prints the raw seconds.  With --trace 1 the run makes one untraced pass and one
traced pass, reports the per-layer metrics of the traced pass and writes
its spans to perfbench/out/.  `--workload all` runs the three workloads in
turn, each in its own process, and prints one table.

A task that raises or gives a wrong answer counts as failed; the run goes
on.  The run exits with 0 when it could measure, whatever the answers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "symbolic", "correlate")
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_s.p50": "s",
              "slowest_task_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "scalars.arith.calls": "count",
    "scalars.arith.self_s": "s",
    "scalars.arith.rational_share": "1",
    "scalars.poly_gcd.calls": "count",
    "scalars.poly_gcd.s": "s",
    "fock.apply_mode.calls": "count",
    "fock.apply_mode.self_s": "s",
    "fock.memo.entries": "count",
    "fields.state_field_mode.calls": "count",
    "fields.field_mode.calls": "count",
    "fields.translate.calls": "count",
    "fields.self_s": "s",
    "fields.memo.entries": "count",
    "fields.memo.new_per_call": "1",
    "memo.other.entries": "count",
    "ope.check.translation_s": "s",
    "ope.check.locality_s": "s",
    "ope.check.associativity_s": "s",
    "ope.locality_defect.calls": "count",
    "ope.associativity_defect.calls": "count",
    "ope.memo.entries": "count",
    "ope.coset_graded.s": "s",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.s": "s",
    "linalg.kernel_basis.cells": "count",
    "correlators.matrix_element_coefficient.calls": "count",
    "correlators.matrix_element_coefficient.self_s": "s",
    "correlators.expand.s": "s",
    "correlators.heisenberg_npoint.s": "s",
    "coords.laurent_coefficients.calls": "count",
    "coords.laurent_coefficients.s": "s",
    "coords.self_s": "s",
    "characters.s": "s",
    "presets.get_preset.s": "s",
    "presets.boson_fermion_check.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class TaskResult:
    name: str
    seconds: float
    ok: bool
    memo: dict = field(default_factory=dict)
    slowdown: float | None = None   # the speed probe's, during this task


def import_voa():
    """Import voa from the sources of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "voa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no voa sources at {src}")
    sys.path.insert(0, str(src))
    import voa
    if Path(voa.__file__).resolve().parent != (src / "voa").resolve():
        raise SystemExit(f"perfbench: voa imported from {voa.__file__}")
    return voa


def run_pass(tasks, tracer=None, probe=None) -> list[TaskResult]:
    """Each task once: build its inputs, solve, compare with the answer.

    A full collection before each task, outside the timed region, makes
    every task start from the same heap, whatever ran before it.  Time the
    speed probe spent inside a task is not counted as the task's.
    """
    results = []
    for i, task in enumerate(tasks):
        gc.collect()
        if tracer is not None:
            tracer.start_task(i)
        excluded = probe.excluded if probe is not None else 0.0
        sampled = len(probe.samples) if probe is not None else 0
        t0 = time.perf_counter()
        try:
            ok = task.solve(task.build()) == task.expect
        except Exception:  # a failing task is counted, never fatal
            traceback.print_exc()
            ok = False
        seconds = time.perf_counter() - t0
        slowdown = None
        if probe is not None:
            seconds -= probe.excluded - excluded
            slowdown = probe.slowdown(sampled)
        if not ok:
            print(f"perfbench: task failed: {task.name}", file=sys.stderr)
        memo = tracer.memo_sizes() if tracer is not None else {}
        results.append(TaskResult(task.name, seconds, ok, memo, slowdown))
    return results


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Set-up seconds at reference speed, each in a fresh process.

    The first probe compiles the sources to bytecode and is not counted.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            times.append(float(out.stdout.split()[-1]))
    return times


def end_to_end_metrics(passes, setup_times, slowdown) -> dict:
    """Medians over the run, in seconds at the reference machine's speed.

    Each task's time is divided by the probe's slowdown during that task
    (the run's, for a task too short to hold a sample), which removes the
    drift of the machine's speed that the program and the probe share.
    """
    scaled = [[r.seconds / (r.slowdown or slowdown) for r in p]
              for p in passes]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p) for p in scaled),
        "task_s.p50": statistics.median(t for p in scaled for t in p),
        "slowest_task_s": statistics.median(max(p) for p in scaled),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tr, traced, untraced) -> dict:
    st = tr.stats
    memo = {k: sum(r.memo.get(k, 0) for r in traced)
            for k in ("untagged", "fm", "um", "other")}
    arith = st["scalars.arith"]
    fm_calls = st["fields.field_mode"].calls
    return {
        "scalars.arith.calls": arith.calls,
        "scalars.arith.self_s": arith.self_s,
        "scalars.arith.rational_share":
            tr.rational_calls / arith.calls if arith.calls else 0.0,
        "scalars.poly_gcd.calls": st["scalars.poly_gcd"].calls,
        "scalars.poly_gcd.s": st["scalars.poly_gcd"].incl_s,
        "fock.apply_mode.calls": st["fock.apply_mode"].calls,
        "fock.apply_mode.self_s": st["fock.apply_mode"].self_s,
        "fock.memo.entries": memo["untagged"],
        "fields.state_field_mode.calls": st["fields.state_field_mode"].calls,
        "fields.field_mode.calls": fm_calls,
        "fields.translate.calls": st["fields.translate"].calls,
        "fields.self_s": tr.layer_self_s("fields"),
        "fields.memo.entries": memo["fm"],
        "fields.memo.new_per_call": memo["fm"] / fm_calls if fm_calls else 0.0,
        "memo.other.entries": memo["other"],
        "ope.check.translation_s": tr.phase_s["translation"],
        "ope.check.locality_s": tr.phase_s["locality"],
        "ope.check.associativity_s": tr.phase_s["associativity"],
        "ope.locality_defect.calls": st["ope.locality_defect"].calls,
        "ope.associativity_defect.calls":
            st["ope.associativity_defect"].calls,
        "ope.memo.entries": memo["um"],
        "ope.coset_graded.s": st["ope.coset_graded"].incl_s,
        "linalg.kernel_basis.calls": st["linalg.kernel_basis"].calls,
        "linalg.kernel_basis.s": st["linalg.kernel_basis"].incl_s,
        "linalg.kernel_basis.cells": tr.kernel_cells,
        "correlators.matrix_element_coefficient.calls":
            st["correlators.matrix_element_coefficient"].calls,
        "correlators.matrix_element_coefficient.self_s":
            st["correlators.matrix_element_coefficient"].self_s,
        "correlators.expand.s": st["correlators.expand"].incl_s,
        "correlators.heisenberg_npoint.s":
            st["correlators.heisenberg_npoint"].incl_s,
        "coords.laurent_coefficients.calls":
            st["coords.laurent_coefficients"].calls,
        "coords.laurent_coefficients.s":
            st["coords.laurent_coefficients"].incl_s,
        "coords.self_s": tr.layer_self_s("coords"),
        "characters.s": st["characters.character"].incl_s
            + st["characters.lattice_theta_character"].incl_s,
        "presets.get_preset.s": st["presets.get_preset"].incl_s,
        "presets.boson_fermion_check.s":
            st["presets.boson_fermion_check"].incl_s,
        "trace.overhead_s": sum(r.seconds for r in traced)
            - sum(r.seconds for r in untraced),
    }


def write_trace(path: Path, tracer, traced, untraced) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "tasks": [{"name": r.name, "seconds": r.seconds, "ok": r.ok,
                   "memo": r.memo} for r in traced],
        "untraced_seconds": [r.seconds for r in untraced],
        "stats": {name: {"calls": s.calls, "self_s": s.self_s,
                         "incl_s": s.incl_s}
                  for name, s in sorted(tracer.stats.items())},
        "span_fields": ["name", "start", "end", "parent", "task"],
        "spans": tracer.span_records(),
        "spans_dropped": tracer.spans_dropped,
    }
    path.write_text(json.dumps(doc))


def result_line(results, metrics, units) -> str:
    failed = sum(not r.ok for r in results)
    return json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})


def run_workload(args) -> str:
    import_voa()
    import workloads
    if args.trace:
        tasks = workloads.tasks_for(args.workload, args.seed, args.smoke)
        from tracer import Tracer
        untraced = run_pass(tasks)
        with Tracer() as tracer:
            traced = run_pass(tasks, tracer)
        metrics = per_layer_metrics(tracer, traced, untraced)
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(out, tracer, traced, untraced)
        for r in traced:
            print(f"  {r.seconds:9.4f} s  memo {r.memo}  {r.name}")
        for name, value in metrics.items():
            print(f"  {name:<46} {value:.6g} {PER_LAYER[name]}")
        print(f"spans written to {out.relative_to(ROOT)}")
        return result_line(untraced + traced, metrics, PER_LAYER)

    setup_times = measure_setup(args.workload, args.seed, args.smoke)
    tasks = workloads.tasks_for(args.workload, args.seed, args.smoke)
    # The first pass sets how many fit in --seconds, so the count of
    # passes does not flip with noise from one run to the next.
    with SpeedProbe() as probe:
        passes = [run_pass(tasks, probe=probe)]
        first = sum(r.seconds for r in passes[0])
        for _ in range(max(1, round(args.seconds / first)) - 1):
            passes.append(run_pass(tasks, probe=probe))
    slowdown = probe.slowdown()
    metrics = end_to_end_metrics(passes, setup_times, slowdown)
    results = [r for p in passes for r in p]
    slowest = max(passes[0], key=lambda r: r.seconds).name
    failed = sum(not r.ok for r in results)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"passes of {len(tasks)} tasks; machine slowdown {slowdown:.3f} "
          f"from {len(probe.samples)} probe samples")
    raw = {"wall_s": statistics.median(sum(r.seconds for r in p)
                                        for p in passes),
           "task_s.p50": statistics.median(r.seconds for r in results),
           "slowest_task_s": statistics.median(max(r.seconds for r in p)
                                                for p in passes)}
    notes = {"setup_s": f"median of {len(setup_times)} fresh processes",
             "wall_s": f"median of {len(passes)} passes",
             "task_s.p50": f"median of {len(results)} task samples",
             "slowest_task_s": slowest, "peak_rss_mb": "ru_maxrss"}
    for name, value in metrics.items():
        unscaled = f"raw {raw[name]:.4f} s; " if name in raw else ""
        print(f"  {name:<15} {value:10.4f} {END_TO_END[name]:<3} "
              f"({unscaled}{notes[name]})")
    print(f"  {'fail_ratio':<15} {failed / len(results):10.4f} 1   "
          f"({failed} of {len(results)} tasks)")
    return result_line(results, metrics, END_TO_END)


def run_all(args) -> int:
    """Every workload in its own process; one table of the results."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900, check=True)
        rows.append((workload, json.loads(out.stdout.splitlines()[-1])))
    correct = True
    for workload, res in rows:
        correct = correct and res["correct"]
        print(f"{workload}: fail_ratio {res['failed'] / res['attempted']:.4f}"
              f" 1 ({res['failed']} of {res['attempted']} tasks)")
        for name, m in res["metrics"].items():
            print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny degrees, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
