"""The traced benchmark run (bench/run.py --trace 1) wraps sobstab names
listed in bench/spans.py; a rename in sobstab must not break it."""

import importlib.util
import sys
from pathlib import Path

import sobstab
import sobstab.functional

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_boundary_and_restores_it():
    spans = _load_spans()
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for _, mod, attr in spans.BOUNDARIES
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(importlib.import_module(mod), attr).__wrapped__ is fn
        u = sobstab.Superposition(
            sobstab.Ambient(3, 1.0),
            (
                sobstab.BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                sobstab.BubbleParam(-0.5, (2.0, 0.0, 0.0), 0.5),
            ),
        )
        sobstab.functional.m_value(u)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    # the m-search objective is looked up through the traced name
    assert tracer.get("functional.m_value").calls == 1
    assert tracer.get("bubbles.pair_radial").calls >= 2
