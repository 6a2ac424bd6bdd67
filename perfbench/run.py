"""riskpath benchmark: three seeded workloads, timed from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload c9-discover-d5 --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all               # every workload, end-to-end table
    python3 perfbench/run.py --workload all --trace 1     # per-layer table and trace overhead

A run generates the workload's inputs from ``--seed`` and sets it up once
in a process of its own. A second, fresh process runs the measured operation
once to warm up, then a timed set-up and a timed operation in turn until
``--seconds`` have passed (at least ``MIN_OPS`` samples, within
``RUN_DEADLINE_S``). Each sample's output is checked after it is timed.
The timings are medians over the whole run.
With ``--trace 1`` untraced and traced operations alternate, each in a fresh
process; the traced ones give the per-layer metrics (medians) and
``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when that line is printed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
MIN_OPS = 3
# A run ends within this many seconds even if the program slows down: no
# new sample starts unless the last one would still fit.
RUN_DEADLINE_S = 170
# time left for the measuring process to check its last output and exit
EXIT_MARGIN_S = 10

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "setup_rss_mb": "MB"}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(workload: str, seed: int) -> dict:
    """Machine, versions, commit, seed and program size of a result."""
    import numpy
    import scipy

    src_lines = 0
    for path in sorted((ROOT / "src" / "riskpath").rglob("*.py")):
        src_lines += sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                         if line.strip())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(), "src_lines": src_lines}


def _spawn(spec: dict, log: Path, deadline: float) -> dict | None:
    """Run one worker process; its result dict, or None if it failed or
    was stopped at ``deadline`` (a ``time.monotonic`` value)."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result_path.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"{spec['role']} process failed ({code}):\n{tail}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def _describe(values: list[float]) -> str:
    if len(values) == 1:
        return "n=1"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def _traced_ops(base: dict, workdir: Path, seconds: float, deadline: float):
    """Untraced and traced operations in turn, each in a fresh process, until
    ``seconds`` have passed and each kind has ``MIN_OPS`` samples."""
    ops = []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        is_traced = attempted % 2 == 1
        attempted += 1
        began = time.monotonic()
        op = _spawn({**base, "role": "op", "trace": is_traced,
                     "run_id": f"{base['run_id']}-op{attempted}",
                     "full_check": attempted == 1},
                    workdir / f"op{attempted}.log", deadline)
        if op is None or op["check_error"]:
            failed += 1
            if op is not None:
                print(f"output check failed: {op['check_error']}", file=sys.stderr)
        if op is not None:
            ops.append({**op, "traced": is_traced})
        plain = [o for o in ops if not o["traced"]]
        with_trace = [o for o in ops if o["traced"]]
        now = time.monotonic()
        enough = (now - start >= seconds and len(plain) >= MIN_OPS
                  and len(with_trace) >= MIN_OPS)
        if enough or failed > MIN_OPS or now + (now - began) > deadline:
            return plain, with_trace, attempted, failed


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict | None:
    """Set up and measure one workload; None when no sample completed."""
    from spans import PER_LAYER_UNITS, layer_metrics, median_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_id = f"{name}-{seed}-{os.getpid()}"
    workdir = WORK / "runs" / run_id
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = {"workload": name, "seed": seed, "workdir": str(workdir), "trace": False,
            "run_id": run_id, "result": str(workdir / "result.json"),
            "reference": str(WORK / "reference"
                             / f"{name}-{workload.key}-seed{seed}.pathways.json")}
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # the untraced run times its set-ups in the measuring process
        setup = _spawn({**base, "role": "setup", "trace": traced,
                        "reps": workload.setup_reps if traced else 1},
                       workdir / "setup.log", deadline)
        if setup is None:
            return None
        if traced:
            plain, with_trace, attempted, failed = _traced_ops(base, workdir, seconds,
                                                               deadline)
        else:
            loop = _spawn({**base, "role": "loop", "seconds": seconds, "min_ops": MIN_OPS,
                           "until_s": deadline - time.monotonic() - EXIT_MARGIN_S},
                          workdir / "loop.log", deadline)
            if loop is None:
                return None
            attempted, failed = loop["attempted"], loop["failed"]
            for error in loop["errors"]:
                print(f"output check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        if not plain or not with_trace:
            return None
        samples = {"wall_s": [o["wall_s"] for o in plain],
                   "traced_wall_s": [o["wall_s"] for o in with_trace],
                   "setup_s": setup["times"]}
        per_layer = median_metrics([layer_metrics(o["spans"]) for o in with_trace])
        from_setup = median_metrics([layer_metrics(s) for s in setup["spans"]])
        metrics = {m: per_layer[m] + from_setup.get(m, 0) for m in per_layer}
        metrics["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                       - statistics.median(samples["wall_s"]))
        units = PER_LAYER_UNITS
        _write_spans(run_id, setup["spans"], [o["spans"] for o in with_trace])
    else:
        if not loop["wall_s"] or loop["maxrss_kb"] is None:
            return None
        samples = {"wall_s": loop["wall_s"], "peak_rss_mb": [loop["maxrss_kb"] / 1024],
                   "setup_s": loop["setup_s"], "setup_rss_mb": [setup["maxrss_kb"] / 1024]}
        metrics = {m: statistics.median(v) for m, v in samples.items()}
        units = dict(END_TO_END_UNITS)
    return {"stamp": stamp(name, seed), "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": units, "samples": samples}


def _write_spans(run_id: str, setup_spans: list, op_spans: list) -> None:
    out = WORK / "spans" / f"{run_id}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for group in setup_spans + op_spans:
            for span in group:
                fh.write(json.dumps(span) + "\n")


def _print_table(result: dict) -> None:
    stamp_, samples = result["stamp"], result["samples"]
    print(f"== {stamp_['workload']} seed={stamp_['seed']}  "
          f"ops attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.3g}  "
          f"output check: {'pass' if result['failed'] == 0 else 'FAIL'}")
    if "traced_wall_s" in samples:
        print(f"  per-layer medians over {len(samples['traced_wall_s'])} traced ops "
              f"and {len(samples['setup_s'])} traced set-ups; layers that did not run read 0")
    for metric, value in result["metrics"].items():
        detail = (f"median, {_describe(samples[metric])}" if metric in samples
                  else "traced minus untraced wall_s" if metric == "trace.overhead_s"
                  else "")
        print(f"  {metric:<36} {value:>14.6g} {result['units'][metric]:<6} {detail}")
    print("  stamp: " + json.dumps(stamp_, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riskpath" / "__init__.py").is_file():
        print(f"error: riskpath sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")

    results = {}
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        result = run_workload(name, seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: workload {name} could not be set up or measured",
                  file=sys.stderr)
            return 1
        results[name] = result
        out = WORK / "results" / f"{name}-{seed}-trace{args.trace}-{os.getpid()}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        _print_table(result)

    # a single workload's metrics keep their own names; "all" prefixes them
    prefix = len(results) > 1
    metrics = {(f"{name}/{m}" if prefix else m): {"value": v, "unit": r["units"][m]}
               for name, r in results.items() for m, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
