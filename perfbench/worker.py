"""One benchmark sample in a fresh process: set up, solve, write, replay.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, its inputs (see workloads.make_inputs), an
output directory, whether to trace and whether to stop after set-up.  The
last stdout line is a JSON record of timings and of the facts the checks
need; run.py does the checking.  The clock starts before the package (and
NumPy with it) is imported, so `run_s` and `setup_s` include the import.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import saddlebary as sb  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402

import saddlebary.area_convex  # noqa: E402
import saddlebary.ibp  # noqa: E402
import saddlebary.mirror_prox  # noqa: E402
from spans import Tracer, children, self_time  # noqa: E402
from workloads import IBP_ITERS, WORKLOADS, theory_budget  # noqa: E402

REPLAYS = 3
clock = time.perf_counter


def load_cost_csv(path):
    """Cost rows as `saddlebary barycenter --cost csv:<path>` reads them."""
    rows = []
    for line in Path(path).read_text().splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            rows.append([float(v) for v in text.split(",")])
    return np.array(rows)


def build(inp):
    """Problem, grid (or None) and cost scale, following the CLI's set-up."""
    if "gaussian_seed" in inp:
        measures, grid = sb.gaussian_suite(sb.GaussianSuiteSpec(seed=inp["gaussian_seed"]))
    else:
        measures, grid = sb.load_histograms(inp["hists"])
    if "cost" in inp:
        C, scale = load_cost_csv(inp["cost"]), 1.0
    else:
        C = (grid[:, None] - grid[None, :]) ** 2
        scale = C.max()
        C = C / scale
    return sb.BarycenterProblem.create(measures, sb.vectorize_cost(C)), grid, scale


def oracle_reference(prob, grid, scale):
    """The CLI's exact optimality-gap callback on squared-distance grids."""
    if grid is None:
        return None
    g = sb.Grid1D(points=grid, power=2.0)
    p_star = sb.barycenter_1d_quantile(prob.measures, g)
    return lambda bary: sb.optimality_gap(bary, p_star, prob, g) / scale


def solve_once(solve, prob, oracle, entry):
    if solve.algo == "mp":
        return entry(prob, solve.eps, max_iters=solve.max_iters, oracle=oracle)[2]
    if solve.algo == "de":
        return entry(prob, solve.eps, max_outer=solve.max_iters, oracle=oracle)[2]
    cfg = sb.IBPConfig(
        reg=solve.reg, iters=solve.max_iters or IBP_ITERS, stabilized=solve.stabilized
    )
    return entry(prob, cfg, oracle=oracle)[1]


ENTRIES = {
    "mp": "run_mirror_prox",
    "de": "run_dual_extrapolation",
    "ibp": "ibp_barycenter",
}


def install_tracing(tracer):
    """Wrap the layer boundaries; returns which optional hooks exist."""
    mp_mod = saddlebary.mirror_prox
    ac_mod = saddlebary.area_convex
    hooks = {
        "mp_iteration": tracer.patch(mp_mod, "mp_iteration", "mirror_prox.mp_iteration"),
        # One call per AM sweep until the package counts sweeps itself.
        "sweep": tracer.patch(ac_mod, "_box_quadratic_argmin", "area_convex.sweep", count_only=True),
    }
    hooks["am_prox"] = tracer.patch(
        ac_mod, "am_prox", "area_convex.am_prox",
        work_counter="area_convex.sweep" if hooks["sweep"] else None,
    )
    for mod in (mp_mod, ac_mod, saddlebary.ibp):
        tracer.patch(mod, "certificate_values", "core.certificate_values")
    for name in ("write_report_csv", "write_barycenter_csv", "write_iterates_csv", "read_iterates_csv"):
        tracer.patch(sb, name, f"report.{name}")
    return hooks


def write_outputs(outdir, report, prob):
    """The CLI's three output files; returns (seconds, iterates.csv bytes)."""
    outdir.mkdir(parents=True, exist_ok=True)
    t = clock()
    sb.write_report_csv(report, outdir / "report.csv")
    if report.final_bary is not None:
        sb.write_barycenter_csv(report.final_bary, outdir / "barycenter.csv")
    if report.final_x is not None and report.final_y is not None:
        sb.write_iterates_csv(prob, report.final_x, report.final_y, outdir / "iterates.csv")
    seconds = clock() - t
    iterates = outdir / "iterates.csv"
    return seconds, iterates.stat().st_size if iterates.exists() else 0


def replay(path):
    """`saddlebary gap` on iterates.csv, repeated: the distinct gaps and the read times."""
    gaps, reads = set(), []
    for _ in range(REPLAYS):
        t = clock()
        prob, x, y = sb.read_iterates_csv(path)
        t_read = clock()
        gaps.add(sb.duality_gap(x, y, prob))
        reads.append(t_read - t)
    return sorted(gaps), reads


def bary_facts(bary):
    if bary is None:
        return None
    bary = np.asarray(bary, dtype=float)
    return {
        "finite": bool(np.all(np.isfinite(bary))),
        "min": float(bary.min()),
        "sum": float(bary.sum()),
    }


def _total(spans):
    return sum(s.end - s.start for s in spans)


def _ns_per_entry(pairs):
    """Total seconds over total plan entries touched, in nanoseconds."""
    entries = sum(e for _, e in pairs)
    return 1e9 * sum(s for s, _ in pairs) / entries if entries else 0.0


def layer_metrics(tracer, solve_spans, hooks):
    """Per-layer figures of one sample from its spans (see README.md)."""
    spans = tracer.spans
    named = {}
    driver_self = {"mp": 0.0, "de": 0.0}
    ibp_self = ibp_sweeps = ibp_entries = 0
    am_inner = []  # (sweeps, sweep cap, seconds, entries per sweep) per am_prox call
    solve_total = attributed = 0.0
    for index, solve, report, entries in solve_spans:
        kids = children(spans, index)
        for kid in kids:
            named.setdefault(kid.name, []).append((kid, entries))
        own = self_time(spans, index)
        duration = spans[index].end - spans[index].start
        if solve.algo == "ibp":
            if solve.timed:
                ibp_self += own
                ibp_sweeps += report.iterations_run
                ibp_entries += report.iterations_run * entries
        else:
            driver_self[solve.algo] += own
        if solve.timed:
            solve_total += duration
            # IBP sweeps have no boundary of their own: they are ibp_barycenter's self time.
            attributed += duration if solve.algo == "ibp" else duration - own
        if solve.algo == "de":
            cap = report.config.get("inner_iters")
            am_inner += [
                (kid.work, cap, kid.end - kid.start, entries)
                for kid in kids
                if kid.name == "area_convex.am_prox"
            ]

    mp_spans = [s for s, _ in named.get("mirror_prox.mp_iteration", [])]
    mp_times = sorted(s.end - s.start for s in mp_spans)
    am_spans = [s for s, _ in named.get("area_convex.am_prox", [])]
    cert = [s for s, _ in named.get("core.certificate_values", [])]
    oracle = [s for s, _ in named.get("oracles_1d.optimality_gap", [])]

    sweeps = [w for w, _, _, _ in am_inner]
    counted = hooks["sweep"] and hooks["am_prox"]
    total_sweeps = sum(sweeps) if counted else None
    metrics = {
        "mirror_prox.mp_iteration.calls": len(mp_spans),
        "mirror_prox.mp_iteration.s_median": statistics.median(mp_times) if mp_times else 0.0,
        "mirror_prox.mp_iteration.s_p99": (
            statistics.quantiles(mp_times, n=100)[98] if len(mp_times) > 1 else float(sum(mp_times))
        ),
        "mirror_prox.mp_iteration.ns_per_entry": _ns_per_entry(
            [(s.end - s.start, e) for s, e in named.get("mirror_prox.mp_iteration", [])]
        ),
        "mirror_prox.driver_self_s": driver_self["mp"],
        "area_convex.am_prox.calls": len(am_spans),
        "area_convex.am_prox.s_median": (
            statistics.median(s.end - s.start for s in am_spans) if am_spans else 0.0
        ),
        "area_convex.am_sweeps": total_sweeps,
        "area_convex.sweeps_per_prox_mean": (
            None if not counted else (total_sweeps / len(sweeps) if sweeps else 0.0)
        ),
        "area_convex.sweeps_per_prox_max": None if not counted else max(sweeps, default=0),
        "area_convex.sweep_s": (
            None if not counted else (_total(am_spans) / total_sweeps if total_sweeps else 0.0)
        ),
        "area_convex.sweep_ns_per_entry": (
            None if not counted else _ns_per_entry([(t, w * e) for w, _, t, e in am_inner])
        ),
        "area_convex.stationary_ratio": (
            None if not counted or any(cap is None for _, cap, _, _ in am_inner)
            else (sum(w < cap for w, cap, _, _ in am_inner) / len(am_inner) if am_inner else 0.0)
        ),
        "area_convex.driver_self_s": driver_self["de"],
        "core.certificate_values.calls": len(cert),
        "core.certificate_values.s": _total(cert),
        "oracles_1d.optimality_gap.calls": len(oracle),
        "oracles_1d.optimality_gap.s": _total(oracle),
        "ibp.sweeps": ibp_sweeps,
        "ibp.sweep_s": ibp_self / ibp_sweeps if ibp_sweeps else 0.0,
        "ibp.sweep_ns_per_entry": 1e9 * ibp_self / ibp_entries if ibp_entries else 0.0,
        "trace.span_coverage": attributed / solve_total if solve_total else 0.0,
    }
    if not hooks["mp_iteration"]:
        for key in [k for k in metrics if k.startswith("mirror_prox.mp_iteration.")]:
            metrics[key] = None
    return metrics


def run(spec):
    workload = WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    sample = {"inputs": len(spec["inputs"]), "import_s": IMPORT_S}

    problems = []
    build_s = oracle_ref_s = 0.0
    for inp in spec["inputs"]:
        t = clock()
        prob, grid, scale = build(inp)
        t_built = clock()
        oracle = oracle_reference(prob, grid, scale)
        build_s += t_built - t
        oracle_ref_s += clock() - t_built
        problems.append((prob, oracle))
    sample["build_s"] = build_s
    sample["oracle_ref_s"] = oracle_ref_s
    sample["setup_s"] = IMPORT_S + build_s + oracle_ref_s
    if spec.get("setup_only"):
        return sample

    tracer = Tracer() if spec.get("trace") else None
    hooks = install_tracing(tracer) if tracer else None
    solve_spans = []
    records = []
    for i, (prob, oracle) in enumerate(problems):
        if tracer and oracle is not None:
            oracle = tracer.wrap("oracles_1d.optimality_gap", oracle)
        for solve in workload.solves:
            entry = getattr(sb, ENTRIES[solve.algo])
            if tracer:
                entry = tracer.wrap(f"solve.{solve.algo}", entry)
                solve_index = len(tracer.spans)
            t = clock()
            report = solve_once(solve, prob, oracle, entry)
            solve_s = clock() - t
            if tracer:
                solve_spans.append((solve_index, solve, report, prob.m * prob.n * prob.n))
            write_s, iterates_bytes = write_outputs(out / f"{i}-{solve.label}", report, prob)
            records.append(
                {
                    "label": solve.label,
                    "timed": solve.timed,
                    "n": prob.n,
                    "m": prob.m,
                    "status": report.status,
                    "iterations": report.iterations_run,
                    "budget": theory_budget(solve, prob.n, prob.cost.d_inf),
                    "final_gap": report.final_gap,
                    "bary": bary_facts(report.final_bary),
                    "records": len(report.records),
                    "solve_s": solve_s,
                    "write_s": write_s,
                    "iterates_bytes": iterates_bytes,
                }
            )
    sample["run_s"] = clock() - T_START

    for i, record in enumerate(records):
        path = out / f"{i // len(workload.solves)}-{record['label']}" / "iterates.csv"
        if path.exists():
            record["replay_gaps"], record["read_times"] = replay(path)

    timed = [r for r in records if r["timed"]]
    work = sum(r["iterations"] * r["m"] * r["n"] ** 2 for r in timed)
    sample.update(
        solves=records,
        solve_s=sum(r["solve_s"] for r in timed),
        iterations=sum(r["iterations"] for r in timed),
        ns_per_entry=1e9 * sum(r["solve_s"] for r in timed) / work if work else math.nan,
        write_s=sum(r["write_s"] for r in records),
        records=sum(r["records"] for r in records),
        iterates_bytes=sum(r["iterates_bytes"] for r in records),
        final_gap=max(r["final_gap"] for r in timed),
        naive_sweeps=sum(r["iterations"] for r in records if not r["timed"]),
    )
    if tracer:
        sample["layers"] = layer_metrics(tracer, solve_spans, hooks)
        tracer.dump(out / "spans.json")
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return sample


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
