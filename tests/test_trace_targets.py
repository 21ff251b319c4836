"""The benchmark's tracer names package functions by (module, qualified
name); a rename must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

from conftest import read_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.mark.parametrize("module_name, qualname", tracing.TARGETS,
                         ids=[f"{m}.{q}" for m, q in tracing.TARGETS])
def test_target_resolves_to_a_callable(module_name, qualname):
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_finds_every_known_binding():
    """Building a Tracer resolves every target and raises if a
    `from ... import` copy it expects is missing; it installs nothing."""
    import ergopt  # noqa: F401  (the tracer scans the loaded ergopt modules)

    tracing.Tracer()


def test_every_expected_layer_is_called(tmp_path, monkeypatch):
    """One traced pass of each workload's seed-7 configs, run through
    `cli.main` as the benchmark's child process runs them, reaches every
    layer the benchmark expects; a refactor that stops calling a traced
    function, or drops a binding the tracer knows, fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py's own imports
    monkeypatch.delenv("EOPT_CACHE_DIR", raising=False)
    run = load("perfbench_run", PERFBENCH / "run.py")
    from ergopt import cli

    tracer = tracing.Tracer()
    for workload, expected in run.EXPECTED_LAYERS.items():
        work = tmp_path / workload
        work.mkdir()
        args = types.SimpleNamespace(workload=workload, seed=7, seconds=0, trace=True)
        manifest = run.write_manifest(work, args, run.workloads.build(workload, 7))
        tracer.reset()
        tracer.install()
        try:
            codes = [cli.main(["--config", case["config_path"], "--out", case["out_path"],
                               "--threads", "1"])
                     for case in json.loads(manifest.read_text())["cases"]]
        finally:
            tracer.uninstall()
        assert set(codes) == {0}
        for case in json.loads(manifest.read_text())["cases"]:
            read_report(case["out_path"])
        layers = tracing.aggregate(tracer.spans, tracer.counts)
        assert [name for name in expected if layers[f"{name}.calls"] == 0] == [], workload
