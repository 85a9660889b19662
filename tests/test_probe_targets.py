"""The wall-clock benchmark's contact surface still resolves.

``benchmarks/perf/probes.py`` wraps program functions from outside; a
target that stops being a plain function is silently skipped there and
listed under ``trace.probe_missing``. This runs that same install
against the tree, so deleting or renaming a probe target fails tier-1.
"""

import importlib.util
import pathlib

_PROBES_FILE = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "perf" / "probes.py")


def _load_probes():
    spec = importlib.util.spec_from_file_location("perf_probes",
                                                  _PROBES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_is_a_plain_function():
    probes = _load_probes()
    tracer = probes.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert len(probes.PROBES) > 0
    assert tracer.probe_missing == []
