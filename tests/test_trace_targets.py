"""The benchmark's tracer names package functions by (module, qualified
name); a rename must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


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
