"""latentidm benchmark: time to bounds on bundled, latent-vacuous and latent-zeros.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload latent-zeros --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout; the benchmark exits
with code 2 and prints no result when it is missing.  This process pins
itself (and so every child) to at most 2 of the CPUs it may use, and starts
each child with BLAS limited to one thread:

- ``--trace 0`` runs the workload untraced in one worker process for
  ``wall_s`` and ``peak_rss_mb``, and measures ``setup_s`` in fresh
  interpreters before and after it, after one warm-up that fills the
  bytecode cache.
- ``--trace 1`` runs the worker with spans around the library's public
  functions and reports the per-layer metrics; spans of the last traced
  execution go to ``.perfbench_out/``.

Before the result it prints one line describing the environment and the
samples.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MAX_CPUS = 2
BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# Set-up samples taken before and again after the workload, so that their
# median spans the whole run rather than one moment of the host's load.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160
# Runs in a fresh interpreter: import the library (numpy included) and load
# the bundled catalog and assertion manifest, as every CLI call does.
SETUP_CODE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import latentidm.runner as runner
runner.bundled_scenarios()
runner.assertion_manifest()
elapsed = time.perf_counter() - started
if not runner.__file__.startswith(sys.argv[1]):
    sys.exit("latentidm imported from outside " + sys.argv[1])
print(repr(elapsed))
"""


def child_env() -> dict[str, str]:
    """BLAS at one thread; imports read and fill the bytecode cache, as installs do."""
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pin_cpus() -> list[int]:
    cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
    os.sched_setaffinity(0, cpus)
    return cpus


def setup_samples(env: dict[str, str], count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latentidm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, nproc: int, cpus: list[int]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpus_used": cpus,
        "blas_threads": BLAS_ENV,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "latentidm" / "__init__.py").is_file():
        print(f"error: no latentidm sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    info = environment(args, nproc, pin_cpus())
    env = child_env()
    metrics = {}
    if not args.trace:
        setup_samples(env, 1)  # warm-up: fills the bytecode cache
        setup = setup_samples(env, SETUP_SAMPLES)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        command += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    if not args.trace:
        setup += setup_samples(env, SETUP_SAMPLES)
        metrics["setup_s"], info["setup_samples_s"] = statistics.median(setup), setup
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    info.update(result["info"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
