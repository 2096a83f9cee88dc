"""Golden outputs: digests of a fixed set of commands, pinned in tier-1.

Every case runs in-process through `cli.main` and records its exit code and
the SHA-256 of its stdout, its stderr and each file it writes. Sweep cases
also pin the integer per-trial metrics of `SweepResult.per_trial` with the
trial count: those are counts, which no libm rounding can move. The other
outputs carry bound columns computed with exp, lgamma and hypot, which may
differ by an ulp on another platform, so their digests are compared only
under the numpy and scipy versions recorded in the golden file.

A change that is meant to move an output regenerates the file, and says why
in CHANGES.md. Regeneration prints to stderr the name of each case whose
record changed, before it writes the file:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from boundaryvote import cli
from boundaryvote.harness import METRIC_FIELDS

GOLDEN = Path(__file__).with_name("golden.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

SWEEP_GRID = ["--lambda-values", "2500", "--p-values", "0,0.15,0.5",
              "--r-values", "0.06,0.02,0.06,0.1", "--trials", "12", "--seed", "3"]
WORST = ["--lambda", "3000", "--p", "0.25", "--r", "0.05", "--trials", "12", "--seed", "2"]

# name -> argv; "{tmp}" is a scratch directory whose files are digested
CASES = {
    "sweep-single": ["sweep", *SWEEP_GRID, "--best-radius"],
    "sweep-multi": ["sweep", "--mode", "multi", *SWEEP_GRID, "--regions", "xl,xs"],
    "sweep-2-workers": ["sweep", "--lambda-values", "800,1600", "--p-values", "0.15",
                        "--r-values", "0.03,0.06", "--trials", "3", "--seed", "9",
                        "--workers", "2", "--out", "{tmp}/sweep.csv"],
    "sweep-tiny-lambda": ["sweep", "--lambda-values", "0.01", "--p-values", "0.1,0.5",
                          "--r-values", "0.05,0.1", "--trials", "12", "--mode", "multi"],
    "simulate-single": ["simulate", "--lambda", "2500", "--p", "0.15", "--r", "0.05",
                        "--trials", "12", "--seed", "4", "--dump-field", "{tmp}/field.csv"],
    "simulate-multi": ["simulate", "--mode", "multi", "--region-type", "xl", "--lambda", "2500",
                       "--p", "0.3", "--r", "0.03", "--trials", "12", "--seed", "4",
                       "--dump-field", "{tmp}/field.csv"],
    "simulate-comb": ["simulate", "--region-type", "comb", "--region-r", "0.05",
                      "--region-ell", "0.4", "--lambda", "3000", "--p", "0.25",
                      "--trials", "3", "--dump-field", "{tmp}/field.csv"],
    "worstcase-thin": ["worstcase", "--shape", "thin", *WORST],
    "worstcase-comb": ["worstcase", "--shape", "comb", "--ell", "0.4", *WORST,
                       "--out", "{tmp}/comb.csv"],
    "worstcase-comb-1-strip": ["worstcase", "--shape", "comb", "--ell", "0.2", "--lambda", "3000",
                               "--p", "0.25", "--r", "0.05", "--trials", "4", "--seed", "2"],
    "bounds-xl": ["bounds", "--region-type", "xl", "--lambda-values", "2500,20000",
                  "--p-values", "0.05,0.35", "--r-values", "0.005,0.05,0.1"],
    "bounds-comb": ["bounds", "--region-type", "comb", "--region-r", "0.05", "--region-ell",
                    "0.4", "--lambda-values", "10000", "--p-values", "0.15",
                    "--r-values", "0.02,0.05", "--out", "{tmp}/bounds.csv"],
    "bounds-comb-3-strips": ["bounds", "--region-type", "comb", "--region-r", "0.03",
                             "--region-ell", "0.36", "--lambda-values", "10000",
                             "--p-values", "0.15", "--r-values", "0.03"],
    "render-single": ["render", "--lambda", "600", "--p", "0.15", "--r", "0.05", "--seed", "1",
                      "--out", "{tmp}/trial.svg"],
    "render-multi": ["render", "--mode", "multi", "--lambda", "600", "--p", "0.3", "--r", "0.03",
                     "--trial", "2", "--out", "{tmp}/trial.svg"],
    "error-bad-lambda": ["sweep", "--lambda-values", "0", "--trials", "1"],
    "error-bad-p": ["simulate", "--p", "0.9", "--trials", "1"],
    "error-band-covers-y": ["bounds", "--r-values", "0.05,0.9"],
    "error-unwritable": ["sweep", "--lambda-values", "500", "--p-values", "0.1",
                         "--r-values", "0.05", "--regions", "xs", "--trials", "1",
                         "--out", "/nonexistent-dir/out.csv"],
}

COUNT_FIELDS = [k for k, name in enumerate(METRIC_FIELDS) if not name.endswith("rate")]


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_case(argv) -> dict:
    """Run one command in-process; its exit code and the digests of all it wrote."""
    sweeps = []
    real_sweep = cli.sweep

    def recording_sweep(*args, **kwargs):
        sweeps.append(real_sweep(*args, **kwargs))
        return sweeps[-1]

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cli.sweep = recording_sweep
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([arg.replace("{tmp}", tmp) for arg in argv])
        finally:
            cli.sweep = real_sweep
        files = {path.name: _sha(path.read_bytes()) for path in sorted(Path(tmp).iterdir())}
    record = {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()),
              "files": files}
    if sweeps:
        counts = sweeps[0].per_trial[..., COUNT_FIELDS]
        assert np.array_equal(counts, np.rint(counts))
        record["per_trial_counts"] = _sha(counts.astype(np.int64).tobytes())
        record["trials"] = sweeps[0].trials
    return record


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, golden):
    want = golden["cases"][name]
    got = run_case(CASES[name])
    assert got["exit"] == want["exit"]
    assert got.get("trials") == want.get("trials")
    assert got.get("per_trial_counts") == want.get("per_trial_counts"), "per-trial counts moved"
    if {key: golden[key] for key in _versions()} != _versions():
        pytest.skip(f"float outputs are pinned under numpy {golden['numpy']} "
                    f"and scipy {golden['scipy']}")
    assert got == want, f"outputs moved; regenerate with {golden['regenerate']} only on purpose"


def test_every_case_is_pinned(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


if __name__ == "__main__":
    cases = {name: run_case(argv) for name, argv in CASES.items()}
    pinned = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}
    for name in sorted(cases.keys() | pinned.keys()):
        if cases.get(name) != pinned.get(name):
            print(f"changed: {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps({"regenerate": REGENERATE, **_versions(), "cases": cases},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
