"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload dense-annealing --seed 1 --seconds 36 --trace 0

Run from the repository root. Every measurement happens in a fresh child
process (benchmark/measure.py) with numpy's thread pools held to one thread.
Eight extra children stop after set-up, four before the measurement and four
after it, so ``setup_s`` is the median of nine set-ups. The last line of standard output is the result object; with
``--trace 0`` it carries the end-to-end figures, with ``--trace 1`` the
per-layer ones. Full results and trace spans go to benchmark/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8
DEADLINE_S = 175.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child(args, extra, timeout):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"measurement process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "qrrt" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src' / 'qrrt'}; run from a full checkout", file=sys.stderr)
        return 1
    started = time.monotonic()

    def setup_samples():
        return [
            _child(args, ["--setup-only"], DEADLINE_S - (time.monotonic() - started))["setup_s"]
            for _ in range(SETUP_SAMPLES // 2)
        ]

    try:
        setups = setup_samples()
        result = _child(args, [], DEADLINE_S - 15.0 - (time.monotonic() - started))
        setups += setup_samples()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups + [result["setup_s"]])
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
