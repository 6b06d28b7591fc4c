"""The benchmark's tracer wraps program attributes by name; keep those names resolvable.

``perfbench/tracer.py`` installs its probes at the module and class
attributes callers resolve at call time.  A refactor that moves or renames
one of them breaks traced benchmark runs, so this test reads the probe
table (without changing it) and checks every entry against the program.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
