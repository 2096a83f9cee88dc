"""boundaryvote benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `boundaryvote` command, run through
`boundaryvote.cli.main` in a fresh process with the CLI's default worker
count (one process). A run starts one discarded warm-up process, then
SETUP_SAMPLES processes that only set up, then repeats the command in whole
rounds (one process each) until S seconds have passed since the first round
started. After the rounds it checks every output against computations made
apart from the program (checks.py). It prints a report, then, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Run outputs go to perfbench/out/.
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

from layertrace import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run ends well within 180 s


# name -> the command's arguments for a seed (run.py adds --out)
WORKLOADS = {
    "paper-sweep": lambda seed: ["sweep", "--trials", "1", "--seed", str(seed)],
    "multi-sweep": lambda seed: ["sweep", "--mode", "multi", "--lambda-values", "10000",
                                 "--trials", "2", "--seed", str(seed)],
    "comb-worstcase": lambda seed: ["worstcase", "--shape", "comb", "--lambda", "20000",
                                    "--p", "0.25", "--r", "0.05", "--ell", "0.4",
                                    "--trials", "20", "--seed", str(seed)],
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(out_dir, tag, argv, options, deadline):
    """Run worker.py once; return its result record."""
    result = out_dir / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns()), str(result),
             *options, "--", *argv],
            env=env, cwd=ROOT, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{tag}: worker killed after {timeout:.0f} s")
    if proc.returncode != 0 or not result.exists():
        fail(f"{tag}: worker exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(workload, seed, seconds, trace, out_dir, deadline):
    argv = WORKLOADS[workload](seed)
    spawn(out_dir, "warmup", argv, ["--setup-only"], deadline)
    setups = [spawn(out_dir, f"setup{k}", argv, ["--setup-only"], deadline)["setup_s"]
              for k in range(SETUP_SAMPLES)]
    rounds = []
    first = time.monotonic()
    while not rounds or time.monotonic() - first < seconds:
        csv_path = out_dir / f"round{len(rounds)}.csv"
        options = ["--trace", str(out_dir / f"spans{len(rounds)}.json")] if trace else []
        record = spawn(out_dir, f"round{len(rounds)}", [*argv, "--out", str(csv_path)],
                       options, deadline)
        record["csv"] = csv_path
        rounds.append(record)
        setups.append(record["setup_s"])
        if time.monotonic() + record["wall_s"] + 15.0 > deadline:
            break
    return setups, rounds


def check_round(workload, seed, csv_path):
    import checks
    from boundaryvote import build_comb, region_xl, region_xs
    from boundaryvote.cli import PAPER_LAM_GRID, PAPER_P_GRID, PAPER_R_GRID

    rows = checks.read_csv(csv_path)
    grid = dict(seed=seed, regions=[region_xs(), region_xl()], p_values=PAPER_P_GRID,
                r_values=PAPER_R_GRID)
    if workload == "paper-sweep":
        return checks.check_sweep(rows, trials=1, mode="single", lam_values=PAPER_LAM_GRID,
                                  recompute_lams=(2500.0,), **grid)
    if workload == "multi-sweep":
        cells = [(max(PAPER_P_GRID), min(PAPER_R_GRID)),  # the most rounds (35)
                 (min(PAPER_P_GRID), max(PAPER_R_GRID)),  # the largest r
                 (0.2, 0.02)]
        return checks.check_sweep(rows, trials=2, mode="multi", lam_values=(10000.0,),
                                  multi_cells=cells, **grid)
    return checks.check_comb(rows, seed=seed, trials=20, lam=20000.0, p=0.25, r=0.05,
                             ell=0.4, region=build_comb(0.05, 0.4))


def machine_info(seed):
    import numpy
    import scipy

    try:
        # The ceiling keeps git from reporting a repository that encloses a
        # checkout which is not itself one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "git_revision": rev, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "boundaryvote" / "__init__.py").is_file():
        fail(f"no boundaryvote sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import boundaryvote

    if Path(boundaryvote.__file__).resolve().parent != SRC / "boundaryvote":
        fail(f"imported boundaryvote from {boundaryvote.__file__}, not from {SRC}")

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setups, rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace,
                                out_dir, deadline)

    correct = all(r["exit_code"] == 0 for r in rounds)
    verdict = check_round(args.workload, args.seed, rounds[0]["csv"])
    first_bytes = rounds[0]["csv"].read_bytes()
    identical = all(r["csv"].read_bytes() == first_bytes for r in rounds[1:])
    attempted = verdict.attempted * len(rounds)
    failed = len(verdict.failed) * len(rounds) if identical else attempted
    notes = verdict.notes + ([] if identical else ["FAIL: round outputs differ"])

    if args.trace:
        layers = [r["layers"] for r in rounds]
        values = {name: statistics.median(layer[name] for layer in layers)
                  if unit == "s" else layers[0][name]
                  for name, unit in PER_LAYER}
        if any(layer[name] != layers[0][name] for layer in layers
               for name, unit in PER_LAYER if unit != "s"):
            correct = False
            notes.append("FAIL: count metrics differ between rounds")
        units = dict(PER_LAYER)
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    info = machine_info(args.seed)
    info.update(workload=args.workload, rounds=len(rounds), setup_samples=len(setups),
                command=["boundaryvote", *WORKLOADS[args.workload](args.seed)])
    print(f"# {args.workload}: {len(rounds)} round(s), {len(setups)} set-ups; " + json.dumps(info))
    for note in notes:
        print(f"# check: {note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "notes": notes, "rounds": [
            {k: v for k, v in r.items() if k != "csv"} for r in rounds], **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
