"""The benchmark's independent oracles, run in the test suite: every
`exact_scalar` config of two seeds goes through `cli.main`, and each report
must pass `perfbench/oracles.check`, which recomputes beta, the critical
cycles and the perturbation limits from the config alone."""

import importlib.util
import json
from pathlib import Path

import pytest

from ergopt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("perfbench_workloads", PERFBENCH / "workloads.py")
oracles = load("perfbench_oracles", PERFBENCH / "oracles.py")

CASES = [(seed, case) for seed in (7, 11) for case in workloads.build("exact_scalar", seed)]


@pytest.mark.parametrize("seed, case", CASES, ids=[f"{s}-{c['name']}" for s, c in CASES])
def test_exact_scalar_report_passes_the_oracle(seed, case, tmp_path, monkeypatch):
    monkeypatch.delenv("EOPT_CACHE_DIR", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(case["config"]))
    out = tmp_path / "report.json"
    assert cli.main(["--config", str(config), "--out", str(out), "--threads", "1"]) == 0
    assert oracles.check(case, json.loads(out.read_text())["body"], None) == []
