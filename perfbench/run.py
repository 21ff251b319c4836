"""The ergopt benchmark: seeded experiment configs through the CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed draws the workload's configs
(workloads.py).  Set-up time is the median time of `import ergopt` in
several fresh interpreters (import_probe.py).  The workload then runs in one fresh child
process (child.py): a closed loop with one client, one thread, configs one
after another through `ergopt.cli.main`, repeated for S seconds.  Both
times are given at a fixed host speed: each import and each call is scaled
by a reference loop (reference.py) timed beside it.  Every report is checked against
independent oracles (oracles.py) after the child has exited.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` count config runs, and `metrics` holds the end-to-end metrics
(trace 0) or the per-layer metrics of a traced run (trace 1).  The lines
before it print the same numbers for people, with the software versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import oracles
import tracing
import workloads
from reference import INTERPRETER_S, REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
CHILD_TIMEOUT = 150
# matrix `beta` configs: their oracle reads the U_n and L_p series, and
# their brackets make up gap_sum
MATRIX_BETA_KINDS = ("matrix_beta", "fib_beta")

# layers a traced run of each workload must reach at least once; a miss
# means a wrapper did not reach the binding the package calls
EXPECTED_LAYERS = {
    "deep_search": ("cli.main", "report.run_config", "optimize.matrix_candidates",
                    "optimize.upper_bound", "optimize.cycle_exponent",
                    "cocycle.spectral_radius", "shift.enumerate_cycles"),
    "exact_scalar": ("cli.main", "report.run_config", "optimize.matrix_candidates",
                     "optimize.karp_beta", "optimize.critical_graph",
                     "optimize.CriticalGraph.cycles", "optimize.maximizing_cycles",
                     "optimize.cycle_exponent", "shift.enumerate_cycles",
                     "graph.max_cycle_mean", "graph.critical_subgraph",
                     "graph.strongly_connected_components",
                     "perturb.perturbation_sweep", "perturb.uniqueness_probe"),
    "many_small": ("cli.main", "report.run_config", "optimize.matrix_candidates",
                   "optimize.upper_bound", "optimize.cycle_exponent",
                   "cocycle.spectral_radius", "cocycle.cocycle_log_product",
                   "shift.enumerate_cycles", "irregular.finite_time_exponents",
                   "measures.restricted_beta", "perturb.uniqueness_probe",
                   "perturb.stability_radius"),
}


def child_env() -> dict:
    """One BLAS thread, no report cache, the checkout's sources first."""
    env = dict(os.environ)
    env.pop("EOPT_CACHE_DIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def import_seconds(env: dict) -> tuple[float, float]:
    """`import ergopt` in a fresh interpreter: its time at the reference
    speed, scaled by the interpreter loop timed on either side, and its
    wall time."""
    done = subprocess.run([sys.executable, str(HERE / "import_probe.py")], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    took, before, after = map(float, done.stdout.split())
    return INTERPRETER_S * took / ((before + after) / 2), took


def write_manifest(work: Path, args, cases: list[dict]) -> Path:
    entries = []
    for case in cases:
        config = dict(case["config"])
        series = None
        if case["kind"] in MATRIX_BETA_KINDS:
            series = str(work / f"{case['name']}.csv")
            config["out"] = {"series": series}
        path = work / f"{case['name']}.json"
        path.write_text(json.dumps(config))
        entries.append({"name": case["name"], "config_path": str(path),
                        "out_path": str(work / f"{case['name']}.report.json"),
                        "series_path": series})
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "cases": entries,
        "spans_path": str(work.parent / f"spans-{args.workload}-{args.seed}.json"),
    }))
    return manifest


def failures(cases: list[dict], result: dict) -> list[str]:
    """One message per failed config run: raised, nonzero exit, cached
    report, a report differing from the first pass's, or an oracle miss on
    the first pass's report."""
    by_name = {case["name"]: case for case in cases}
    verdicts = {name: oracles.check(by_name[name], outs[0]["body"], outs[0]["series"])
                for name, outs in result["outputs"].items()}
    out = []
    for rec in result["records"]:
        name = rec["name"]
        if rec["error"] is not None or rec["code"] != 0:
            out.append(f"{name}: exit {rec['code']} {rec['error'] or ''}".rstrip())
        elif rec["cached"]:
            out.append(f"{name}: returned a cached report")
        elif rec["output"] != 0:
            out.append(f"{name}: report differs from the first pass")
        elif verdicts[name]:
            out.append(f"{name}: " + "; ".join(verdicts[name]))
    return out


def gap_sum(cases: list[dict], result: dict) -> float:
    """Sum of U - L over the workload's matrix `beta` configs."""
    total = 0.0
    for case in cases:
        if case["kind"] in MATRIX_BETA_KINDS and case["name"] in result["outputs"]:
            lo, hi = result["outputs"][case["name"]][0]["body"]["results"]["bracket"]["value"]
            total += hi - lo
    return total


def wall_seconds(passes: list[list[float]]) -> float:
    """Each config's median call time over the passes, summed over configs.

    Per-config medians drop a burst of machine noise that hit one call of
    one pass, which a median of whole-pass sums would keep.
    """
    return sum(statistics.median(calls) for calls in zip(*passes))


def pass_seconds(passes: list[list[float]], refs: list[list[float]]) -> float:
    """Like `wall_seconds`, with each call timed at the reference speed.

    A call's time is divided by the mean of the reference loop times taken
    just before and just after it, and multiplied by REFERENCE_S
    (reference.py): the host's speed drifts, and the loop slows with it.
    """
    scaled = [[REFERENCE_S * t / ((ref[i] + ref[i + 1]) / 2) for i, t in enumerate(times)]
              for times, ref in zip(passes, refs)]
    return wall_seconds(scaled)


def per_layer_units() -> dict[str, str]:
    """Unit of every metric a traced run reports, in report order."""
    return {**tracing.metric_units(), "trace.pass_s": "s", "trace.overhead_s": "s",
            "trace.spans": "count", "wall.setup_s": "s", "wall.pass_s": "s",
            "wall.reference_s": "s",
            "bracket.gap_sum": "nats"}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ergopt" / "__init__.py").is_file():
        print(f"perfbench: no ergopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    cases = workloads.build(args.workload, args.seed)
    manifest = write_manifest(work, args, cases)
    env = child_env()
    setup = [import_seconds(env) for _ in range(SETUP_REPEATS)]
    result_path = work / "result.json"
    child = subprocess.run([sys.executable, str(HERE / "child.py"), str(manifest),
                            str(result_path)], env=env, cwd=ROOT, stdout=sys.stderr,
                           timeout=CHILD_TIMEOUT)
    if child.returncode != 0:
        print(f"perfbench: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    failed = failures(cases, result)
    for msg in failed:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    attempted = len(result["records"])
    correct = not failed
    versions = result["versions"]
    passes = result["call_s"]
    pass_s = pass_seconds(passes, result["reference_s"])
    wall_s = wall_seconds(passes)
    reference_s = statistics.median(r for ref in result["reference_s"] for r in ref)
    setup_s = statistics.median(scaled for scaled, _ in setup)
    wall_setup_s = statistics.median(took for _, took in setup)
    gaps = gap_sum(cases, result)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: python {python}, numpy {numpy}, networkx {networkx}, "
          "nproc {nproc}".format(**versions))
    print(f"setup_s      {setup_s:.4f} s     median of {len(setup)} fresh `import ergopt`, "
          f"at the reference speed; {wall_setup_s:.4f} s as wall time")
    print(f"pass_s       {pass_s:.4f} s     sum of per-config medians over "
          f"{len(passes)} untraced passes of {len(cases)} configs, at the "
          f"reference speed")
    print(f"wall_pass_s  {wall_s:.4f} s     the same as wall time; reference loop "
          f"median {reference_s * 1e3:.2f} ms (nominal {REFERENCE_S * 1e3:g} ms)")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"gap_sum      {gaps:.6g} nats")
    print(f"failed_frac  {len(failed) / attempted:.4g} ratio  "
          f"{len(failed)} of {attempted} config runs")
    if args.trace:
        layers = dict(result["layers"])
        missed = [name for name in EXPECTED_LAYERS[args.workload]
                  if layers[f"{name}.calls"] == 0]
        for name in missed:
            print(f"perfbench: FAILED traced layer {name} was never called", file=sys.stderr)
        correct = correct and not missed
        # raw wall time, like the layer times; the alternating passes see
        # the same drift
        traced = wall_seconds(result["traced_call_s"])
        layers["trace.pass_s"] = traced
        layers["trace.overhead_s"] = traced - wall_s
        layers["wall.setup_s"] = wall_setup_s
        layers["wall.pass_s"] = wall_s
        layers["wall.reference_s"] = reference_s
        layers["trace.spans"] = result["spans"]
        layers["bracket.gap_sum"] = gaps
        for name, unit in per_layer_units().items():
            print(f"{name:48s} {layers[name]:.6g} {unit}")
        metrics = {name: metric(layers[name], unit) for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_s": metric(pass_s, "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
