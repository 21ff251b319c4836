"""The benchmark's independent oracles, run in the test suite: every config
of the three workloads goes through `cli.main` (`exact_scalar` at two
seeds, `deep_search` and `many_small` at seed 7), and each report must pass
`perfbench/oracles.check`, which recomputes the checked results from the
config alone."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ergopt import cli

from conftest import read_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
oracles = load("perfbench_oracles", PERFBENCH / "oracles.py")
sys.path.insert(0, str(PERFBENCH))  # run.py's own imports
try:
    run = load("perfbench_run", PERFBENCH / "run.py")
finally:
    sys.path.remove(str(PERFBENCH))

CASES = [(seed, case) for seed in (7, 11) for case in workloads.build("exact_scalar", seed)]
OTHER_CASES = [(workload, case) for workload in ("deep_search", "many_small")
               for case in workloads.build(workload, 7)]


def oracle_failures(case, tmp_path):
    """Run one config through `cli.main` as the benchmark does, with a
    series CSV for the matrix `beta` kinds, and check its report."""
    config = dict(case["config"])
    series = None
    if case["kind"] in run.MATRIX_BETA_KINDS:
        series = tmp_path / "series.csv"
        config["out"] = {"series": str(series)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["--config", str(path), "--out", str(out), "--threads", "1"]) == 0
    body = read_report(out)["body"]
    return oracles.check(case, body, series.read_text() if series else None)


@pytest.mark.parametrize("seed, case", CASES, ids=[f"{s}-{c['name']}" for s, c in CASES])
def test_exact_scalar_report_passes_the_oracle(seed, case, tmp_path, monkeypatch):
    monkeypatch.delenv("EOPT_CACHE_DIR", raising=False)
    assert oracle_failures(case, tmp_path) == []


@pytest.mark.parametrize("workload, case", OTHER_CASES,
                         ids=[f"{w}-7-{c['name']}" for w, c in OTHER_CASES])
def test_seed_7_report_passes_the_oracle(workload, case, tmp_path, monkeypatch):
    monkeypatch.delenv("EOPT_CACHE_DIR", raising=False)
    assert oracle_failures(case, tmp_path) == []
