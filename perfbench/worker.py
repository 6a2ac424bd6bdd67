"""One benchmark process: the set-up of a workload, or measured operations.

Usage: ``python3 perfbench/worker.py '<json spec>'``. The spec names the
``role``, the workload, its seed and work directory, whether to trace, and
the file to write the result JSON to. The roles are:

- ``setup``: build the starting state ``reps`` times;
- ``loop``: one untimed warm-up operation in this fresh process, whose peak
  RSS is read right after it, then a timed set-up (into a directory of its
  own) and a timed operation in turn until ``seconds`` have passed (the
  untraced run);
- ``op``: one operation, traced or not, in a fresh process of its own, so
  that the RSS rises its spans record are its own (the traced run).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, setup_api  # noqa: E402


def run_setup(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(spec["seed"], **workload.size)
    times, rep_spans = [], []
    for rep in range(spec["reps"]):
        api = setup_api()
        tracer = None
        if spec["trace"]:
            tracer = spans.Tracer(f"{spec['run_id']}-setup{rep}")
            tracer.patch_functions(api)
        start = time.perf_counter()
        workload.setup(inputs, workdir, api)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            rep_spans.append(tracer.to_dicts())
    return {"times": times, "maxrss_kb": spans.maxrss_kb(), "spans": rep_spans}


def run_op(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    workload.clear(workdir)
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["run_id"])
        tracer.install()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            out_dir = workload.run(workdir)
        finally:
            wall = time.perf_counter() - start
            maxrss = spans.maxrss_kb()
            if tracer is not None:
                tracer.restore()
    result = {"wall_s": wall, "maxrss_kb": maxrss,
              "spans": tracer.to_dicts() if tracer else [], "check_error": None}
    try:
        if spec["full_check"]:
            check.check_output(out_dir, workload.expected)
        check.check_reference(out_dir, Path(spec["reference"]))
        if workload.pipeline:
            check.check_manifest(out_dir)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed check
        traceback.print_exc()
        result["check_error"] = f"{type(exc).__name__}: {exc}"
    return result


def _checked_op(spec: dict) -> dict | None:
    """``run_op``, or None when the operation itself raised."""
    try:
        return run_op(spec)
    except Exception:  # noqa: BLE001 - counted as a failed operation
        traceback.print_exc()
        return None


def _error(op: dict | None) -> str:
    return "the operation raised" if op is None else op["check_error"]


def _timed_setup(workload, inputs, workdir: Path) -> float:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    workload.setup(inputs, workdir, setup_api())
    return time.perf_counter() - start


def run_loop(spec: dict) -> dict:
    """A warm-up operation, then a timed set-up and a timed operation in turn
    until ``spec["seconds"]`` have passed since it and ``min_ops`` of each
    are done. No operation starts that would not end within
    ``spec["until_s"]`` seconds of the process's start, judged by the last
    one. The set-ups interleave with the operations so that both are sampled
    over the same stretch of the machine's load."""
    begun = time.monotonic()
    warm = _checked_op({**spec, "trace": False, "full_check": True})
    attempted = 1
    errors = [] if warm and not warm["check_error"] else [_error(warm)]
    workload = WORKLOADS[spec["workload"]]
    # generated after the warm-up's peak RSS was read, and not timed
    inputs = workload.inputs(spec["seed"], **workload.size)
    setup_dir = Path(spec["workdir"]) / "setup-rep"
    walls, setups = [], []
    measuring = time.monotonic()
    while len(errors) <= spec["min_ops"]:
        now = time.monotonic()
        if now - measuring >= spec["seconds"] and len(walls) >= spec["min_ops"]:
            break
        last = walls[-1] if walls else warm["wall_s"] if warm else 0.0
        if now + last - begun > spec["until_s"]:
            break
        setups.append(_timed_setup(workload, inputs, setup_dir))
        attempted += 1
        op = _checked_op({**spec, "trace": False, "full_check": False})
        if op is None or op["check_error"]:
            errors.append(_error(op))
        if op is not None:
            walls.append(op["wall_s"])
    shutil.rmtree(setup_dir, ignore_errors=True)
    return {"wall_s": walls, "setup_s": setups,
            "maxrss_kb": warm["maxrss_kb"] if warm else None,
            "attempted": attempted, "failed": len(errors), "errors": errors}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    role = {"setup": run_setup, "loop": run_loop, "op": run_op}[spec["role"]]
    result = role(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
