"""Every function the benchmark's tracer wraps must still exist.

`perfbench/tracing.py` swaps module attributes for timing wrappers; a
renamed or deleted attribute makes `perfbench/run.py --trace 1` fail at
install time, so each (module, attribute) site is checked here.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [
    (name, mod_name, attr)
    for name, _, sites in _load_tracing().TARGETS
    for mod_name, attr in sites
]


@pytest.mark.parametrize(
    "name, mod_name, attr", SITES, ids=[f"{m}.{a}" for _, m, a in SITES]
)
def test_target_resolves_to_callable(name, mod_name, attr):
    module = importlib.import_module(mod_name)
    assert callable(getattr(module, attr, None)), f"{name}: {mod_name}.{attr} is missing"


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        import easerl.envs

        assert easerl.envs.rollout_record.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(easerl.envs.rollout_record, "__wrapped__")
