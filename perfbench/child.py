"""Run one workload's configs through `ergopt.cli.main`, in this process.

run.py starts this in a fresh interpreter per workload run:

    python3 child.py MANIFEST RESULT

The manifest lists the configs, the run length and whether to trace.  One
pass runs every config once, one after another, in one thread.  Passes
repeat while another one fits in the run length.  Only the `cli.main` calls
are timed; reading each report back happens outside that time.  The
reference loop (reference.py) is timed before every call and after the
last one, so every call has a reference time on each side.  With
tracing on, an untimed warm-up pass comes first, and then untraced and
traced passes alternate, so that machine drift hits both alike and their
difference is the tracing overhead.  The result file holds every call's
time (one list per pass, in config order), the reference times (one list
per pass, one longer), peak memory, one record per
config run, the distinct report outputs, and per-layer metrics when traced.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import networkx
import numpy

from ergopt import cli

import tracing
from reference import reference_seconds


def run_pass(cases: list[dict], outputs: dict,
             tracer=None) -> tuple[list[float], list[float], list[dict]]:
    """Run every config once; its `cli.main` times, the reference times
    around them and the run records."""
    times = []
    refs = []
    records = []
    for case in cases:
        refs.append(reference_seconds())
        out_path = Path(case["out_path"])
        out_path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = case["name"]
        argv = ["--config", case["config_path"], "--out", str(out_path), "--threads", "1"]
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # a config that raises counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        record = {"name": case["name"], "code": code, "error": error}
        if code == 0:
            report = json.loads(out_path.read_text())
            series = case["series_path"] and Path(case["series_path"]).read_text()
            output = {"body": report["body"], "series": series or None}
            seen = outputs.setdefault(case["name"], [])
            if output not in seen:
                seen.append(output)
            record.update(cached=report["cached"], output=seen.index(output))
        records.append(record)
    refs.append(reference_seconds())
    return times, refs, records


def room_for_another(since: float, done: int, deadline: float) -> bool:
    """True when one more pass of average length ends before the deadline."""
    now = time.perf_counter()
    return now + (now - since) / done <= deadline


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv
    manifest = json.loads(Path(manifest_path).read_text())
    cases, seconds, trace = manifest["cases"], manifest["seconds"], manifest["trace"]
    outputs: dict[str, list] = {}
    records: list[dict] = []
    passes: list[list[float]] = []
    refs: list[list[float]] = []
    traced: list[list[float]] = []
    layers: list[dict] = []
    tracer = tracing.Tracer() if trace else None
    if trace:  # untimed, so the first untraced pass is not the only cold one
        records += run_pass(cases, outputs)[2]
    start = time.perf_counter()
    while not passes or room_for_another(start, len(passes), start + seconds):
        times, ref, recs = run_pass(cases, outputs)
        passes.append(times)
        refs.append(ref)
        records += recs
        if trace:
            tracer.reset()
            tracer.install()
            times, _, recs = run_pass(cases, outputs, tracer)
            tracer.uninstall()
            traced.append(times)
            records += recs
            layers.append(tracing.aggregate(tracer.spans, tracer.counts))
    result = {
        "call_s": passes,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "networkx": networkx.__version__, "nproc": os.cpu_count()},
        "records": records,
        "outputs": outputs,
    }
    if trace:
        # counts repeat exactly from pass to pass; times are medians
        result["layers"] = {
            name: (statistics.median(pass_[name] for pass_ in layers)
                   if name.endswith(("_s", ".s")) else layers[0][name])
            for name in layers[0]
        }
        result["traced_call_s"] = traced
        result["spans"] = len(tracer.spans)
        Path(manifest["spans_path"]).write_text(json.dumps({
            "workload": manifest["workload"], "seed": manifest["seed"],
            "versions": result["versions"],
            "fields": ["layer", "start", "end", "parent", "request"],
            "spans": tracer.spans,
        }))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
