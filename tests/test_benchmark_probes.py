"""The benchmark drives the program through its public names; keep them working.

``perfbench/tracer.py`` installs its probes at the module and class
attributes callers resolve at call time, and ``perfbench/roundtrip.py``
runs one sounding through the functions each CLI command calls.  A
refactor that moves, renames or reshapes one of them breaks benchmark
runs, so these tests load both files (without changing them) and check
the probe table and one traced round trip against the program.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    yield _load("perfbench_tracer", "tracer.py")
    del sys.modules["perfbench_tracer"]


@pytest.fixture(scope="module")
def roundtrip():
    yield _load("perfbench_roundtrip", "roundtrip.py")
    del sys.modules["perfbench_roundtrip"]


def test_every_probe_names_an_attribute_of_its_owner(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.PROBES if attr not in vars(owner)]
    assert missing == []


def test_install_then_uninstall_restores_the_originals(tracer):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer.PROBES]
    probes = tracer.Tracer()
    probes.install()
    try:
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
    finally:
        probes.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)


def test_traced_default_round_trip_passes_the_benchmark_checks(tracer, roundtrip, tmp_path):
    server = roundtrip.FileServer()
    probes = tracer.Tracer()
    try:
        probes.install()
        try:
            probes.begin(0)
            sounding = roundtrip.run_sounding({}, tmp_path, server)
            stats = probes.end()
        finally:
            probes.uninstall()
    finally:
        server.close()
    assert roundtrip.check(sounding.card, sounding.work) == []
    assert roundtrip.golden_problems(GOLDEN, sounding.work) == []
    assert {name for _, _, name, *_ in tracer.PROBES} - set(stats) == set()
