"""Benchmark: time to a certified barycenter, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload mp-gauss100 --seed 0 --seconds 18 --trace 0

Each sample is a fresh worker process (perfbench/worker.py) that imports the
package from src/, builds the workload's problems, solves them as
`saddlebary barycenter` does, writes report.csv, barycenter.csv and
iterates.csv, and replays the certificate as `saddlebary gap` does.  Samples
run one after another and start until --seconds have passed; every sample
is checked and counted.  Once per invocation the equivalent CLI command runs in a
subprocess and must agree with the worker byte for byte.

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over samples); with --trace 1 it reports the per-layer metrics of traced
samples, which alternate with untraced ones so the tracing overhead is
measured in the same invocation.  The line before it holds the full detail:
provenance, every sample and every failure.  Run outputs go to
.perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, cli_argv, expected_exit_code, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
HELD_OUT_SEED = 4099  # reserved for confirming gain claims; never used to tune
SETUP_SAMPLES = 7  # set-up is measured at least this often per invocation
DEADLINE_S = 170.0  # every invocation ends well inside three minutes
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "ns_per_entry": "ns",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mirror_prox.mp_iteration.calls": "count",
    "mirror_prox.mp_iteration.s_median": "s",
    "mirror_prox.mp_iteration.s_p99": "s",
    "mirror_prox.mp_iteration.ns_per_entry": "ns",
    "mirror_prox.driver_self_s": "s",
    "area_convex.am_prox.calls": "count",
    "area_convex.am_prox.s_median": "s",
    "area_convex.am_sweeps": "count",
    "area_convex.sweeps_per_prox_mean": "count",
    "area_convex.sweeps_per_prox_max": "count",
    "area_convex.sweep_s": "s",
    "area_convex.sweep_ns_per_entry": "ns",
    "area_convex.stationary_ratio": "ratio",
    "area_convex.driver_self_s": "s",
    "core.certificate_values.calls": "count",
    "core.certificate_values.s": "s",
    "oracles_1d.optimality_gap.calls": "count",
    "oracles_1d.optimality_gap.s": "s",
    "oracles_1d.barycenter_1d_quantile.s": "s",
    "ibp.sweeps": "count",
    "ibp.sweep_s": "s",
    "ibp.sweep_ns_per_entry": "ns",
    "ibp.naive_sweeps_to_underflow": "count",
    "report.write_s": "s",
    "report.iterates_bytes": "bytes",
    "report.read_s": "s",
    "report.records": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "solver.final_gap": "cost",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}

# Per-layer metrics read from the sample record rather than from its spans.
SAMPLE_FIELDS = {
    "oracles_1d.barycenter_1d_quantile.s": "oracle_ref_s",
    "ibp.naive_sweeps_to_underflow": "naive_sweeps",
    "report.write_s": "write_s",
    "report.iterates_bytes": "iterates_bytes",
    "report.records": "records",
    "setup.import_s": "import_s",
    "setup.build_s": "build_s",
    "solver.final_gap": "final_gap",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def worker_env():
    """The caller's environment with src/ importable and BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > nproc:
            env[var] = str(nproc)
    return env


def git_sha():
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed, env, inputs):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": inputs,
    }


class Clock:
    """Seconds since the invocation started, and what is left of its deadline."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def remaining(self):
        return max(1.0, DEADLINE_S - self.elapsed())


def run_worker(spec, env, clock):
    """One worker process; its JSON record, or a record with an `error`."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=clock.remaining(),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited with code {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def run_cli(argv, env, clock):
    outdir = Path(argv[argv.index("--out") + 1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "saddlebary.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=clock.remaining(),
        )
    except subprocess.TimeoutExpired:
        return {"code": None, "final_gap": None, "bary_bytes": None}
    bary = outdir / "barycenter.csv"
    return {
        "code": proc.returncode,
        "final_gap": checks.parse_cli_gap(proc.stdout),
        "bary_bytes": bary.read_bytes() if bary.exists() else None,
    }


def cli_parity(workload, inputs, sample, seed, rundir, env, clock):
    """Failures of the CLI run of one input (chosen by seed) against a worker sample."""
    which = seed % len(inputs)
    failures = []
    for j, solve in enumerate(workload.solves):
        record = sample["solves"][which * len(workload.solves) + j]
        worker_bary = rundir / "s0" / f"{which}-{solve.label}" / "barycenter.csv"
        outdir = rundir / f"cli-{solve.label}"
        cli = run_cli(cli_argv(inputs[which], solve, outdir), env, clock)
        failures += checks.parity_failures(
            cli,
            record,
            worker_bary.read_bytes() if worker_bary.exists() else None,
            solve,
            expected_exit_code(solve),
        )
    return failures


def pooled_read_s(samples):
    """Per iterates.csv, the median of its reads pooled over samples; summed over files."""
    pools = {}
    for sample in samples:
        for j, record in enumerate(sample["solves"]):
            pools.setdefault(j, []).extend(record.get("read_times", []))
    return sum(statistics.median(pool) for pool in pools.values() if pool)


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def setup_worker(workload, inputs, rundir, env, clock):
    spec = {"workload": workload.name, "inputs": inputs, "out": str(rundir / "setup"),
            "setup_only": True}
    return run_worker(spec, env, clock)


def sample_loop(workload, inputs, args, rundir, env, clock):
    """Timed samples started until --seconds have passed, and set-up times.

    With tracing, traced and untraced samples alternate and each kind runs at
    least once.  Without, a set-up-only worker follows each sample until
    set-up has been measured SETUP_SAMPLES times, so those measurements are
    spread over the run; more are added at the end if needed.
    """
    samples = []
    setups = []

    def measure_setup():
        extra = setup_worker(workload, inputs, rundir, env, clock)
        if extra.get("error"):
            return False
        setups.append(extra["setup_s"])
        return True

    start = clock.elapsed()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 0
        spec = {
            "workload": workload.name,
            "inputs": inputs,
            "out": str(rundir / f"s{len(samples)}"),
            "trace": traced,
        }
        sample = run_worker(spec, env, clock)
        sample["traced"] = traced
        out = Path(spec["out"])
        if (out / "spans.json").exists():
            (out / "spans.json").replace(rundir / f"spans-{len(samples)}.json")
        samples.append(sample)
        if len(samples) > 1:  # the first sample's files stay for the CLI parity check
            shutil.rmtree(out, ignore_errors=True)
        if not sample.get("error"):
            setups.append(sample["setup_s"])
        if not args.trace and len(setups) < SETUP_SAMPLES:
            measure_setup()
        need_more = args.trace and len(samples) < 2
        if not need_more and clock.elapsed() - start >= args.seconds:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES and measure_setup():
        pass
    return samples, setups


def main(argv=None):
    args = parse_args(argv)
    # A termination request unwinds through subprocess.run, which kills and
    # reaps the worker or CLI process in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "saddlebary" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'saddlebary'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import saddlebary as sb

    clock = Clock()
    workload = WORKLOADS[args.workload]
    rundir = ROOT / ".perfbench" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = worker_env()
    inputs = make_inputs(workload, args.seed, rundir, sb)

    # Warm-up: byte-compile the package and fill the file cache; not counted.
    setup_worker(workload, inputs, rundir, env, clock)
    samples, setups = sample_loop(workload, inputs, args, rundir, env, clock)

    failures = {}
    for k, sample in enumerate(samples):
        found = checks.sample_failures(sample, workload)
        if found:
            failures[k] = found
    good = [s for s in samples if not s.get("error")]
    if not good:
        print(json.dumps({"samples": samples}), file=sys.stderr)
        print("error: no sample completed", file=sys.stderr)
        return 1
    parity = (
        cli_parity(workload, inputs, samples[0], args.seed, rundir, env, clock)
        if not samples[0].get("error")
        else ["cli parity: first sample did not complete"]
    )

    if args.trace:
        traced = [s for s in good if s["traced"]]
        plain = [s for s in good if not s["traced"]]
        run_traced = median_of([s["run_s"] for s in traced])
        run_plain = median_of([s["run_s"] for s in plain])
        values = {
            "report.read_s": pooled_read_s(traced),
            "trace.overhead_s": (
                None if run_traced is None or run_plain is None else run_traced - run_plain
            ),
        }
        for name in PER_LAYER.keys() - values.keys():
            field = SAMPLE_FIELDS.get(name)
            values[name] = median_of(
                [s[field] for s in traced] if field else [s["layers"].get(name) for s in traced]
            )
        units = PER_LAYER
    else:
        values = {name: median_of([s[name] for s in good]) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END

    detail = {
        "workload": workload.name,
        "provenance": provenance(args.seed, env, inputs),
        "samples": samples,
        "setup_samples": setups,
        "failures": failures,
        "cli_parity_failures": parity,
        "elapsed_s": clock.elapsed(),
    }
    (rundir / "result.json").write_text(json.dumps(detail, indent=1))
    for path in rundir.iterdir():
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures and not parity,
                "attempted": len(samples),
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
