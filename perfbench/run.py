"""Repository benchmark: one command, three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload ga_loop --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` repeats the measured work under the layer wrappers of
``perfbench/layers.py`` and prints every per-layer metric instead.
Human-readable lines with units and sample counts come first; the last
line of standard output is the JSON result.  The exit code is non-zero
when an output check fails or the run cannot start.

Each phase runs in a fresh child process with a fresh state directory
under ``.perfbench_state/`` in the checkout, so peak memory and the
program's module-level memos never carry over between phases.  Set-up
is timed in three fresh processes and reported as the median.  A traced
run splits the time budget: half for an untraced pass, then the same
units again under the wrappers, so the two walls give the tracing
overhead.  Span files of traced runs are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 160


def run_child(config: dict) -> dict:
    """Run one workload phase in a fresh process with its own state dir."""
    state_root = ROOT / ".perfbench_state"
    state_root.mkdir(exist_ok=True)
    state_dir = tempfile.mkdtemp(prefix=f"{config['workload']}-", dir=state_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One closed loop on one core: no BLAS thread pools on top of it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"),
             json.dumps({**config, "state_dir": state_dir})],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{config['workload']} {config['phase']} phase exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, base: dict) -> dict:
    setups = [base["setup_s"]] + [
        run_child({**base_config(args), "phase": "setup"})["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    values = dict(base["values"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = base["peak_rss_mb"]
    values["success_ratio"] = 1.0 - base["failed"] / base["attempted"]
    print(f"# {base['units']} units took {base['loop_raw_s']:.3f} s as measured, "
          f"{base['loop_s']:.3f} s at nominal host speed (mean host factor "
          f"{base['host_factor']:.4f}); setup samples: {len(setups)}, as measured "
          f"{base['setup_raw_s']:.4f} s in this process; {json.dumps(base['notes'])}")
    return values


def per_layer(args, config: dict, base: dict) -> tuple[dict, dict]:
    """Replay the untraced run's units under the layer wrappers."""
    out_dir = ROOT / ".perfbench_out"
    traced = run_child({
        **config, "phase": "measure", "traced": True,
        "units": base["units"],
        "trace_path": str(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"),
    })
    values = dict(traced["layers"])
    values["bench.trace_overhead_ratio"] = traced["loop_s"] / base["loop_s"]
    print(f"# traced {traced['units']} units: {traced['loop_s']:.3f} s at nominal "
          f"host speed (untraced {base['loop_s']:.3f} s), {traced['spans']} spans; "
          f"largest self times: "
          + ", ".join(f"{name}={seconds:.3f}s" for name, seconds in traced["top_self"]))
    return values, traced


def base_config(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ga_loop", "batch_score", "job_drain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs a tiny version of each workload (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    config = base_config(args)
    if args.trace:
        config["seconds"] = max(1, args.seconds // 2)
    base = run_child({**config, "phase": "measure"})
    attempted, failed = base["attempted"], base["failed"]
    problems = list(base["problems"])
    if args.trace:
        values, traced = per_layer(args, config, base)
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
    else:
        values = end_to_end(args, base)

    names = [metric["name"] for metric in spec]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    metrics = {}
    for metric in spec:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {metric['name']} = {value:.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
