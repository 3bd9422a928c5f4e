"""The program surface the repository benchmark (``perfbench/``) relies on.

The traced benchmark run patches named functions and methods of the
program in place, and the city workload re-settles a shard through the
mechanism directly.  A rename or a method moved to a base class would
break the benchmark without failing any other test, so the names are
pinned here.
"""

import importlib

import pytest

from perfbench import tracing


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_installs_and_uninstalls_every_target():
    assert len(tracing.TARGETS) == 32
    originals = [
        getattr(*_owner(module_name, path))
        for module_name, path, _, _ in tracing.TARGETS
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(tracing.TARGETS)
        for (module_name, path, _, _), original in zip(tracing.TARGETS, originals):
            assert getattr(*_owner(module_name, path)) is not original, path
    finally:
        tracer.uninstall()
    for (module_name, path, _, _), original in zip(tracing.TARGETS, originals):
        assert getattr(*_owner(module_name, path)) is original, path


@pytest.mark.parametrize(
    "module_name, path",
    [(m, p) for m, p, _, _ in tracing.TARGETS if "." in p],
    ids=lambda value: value,
)
def test_method_targets_are_defined_on_their_own_class(module_name, path):
    # The tracer reads ``owner.__dict__[attr]``: an inherited method
    # would not be found there.
    owner, attr = _owner(module_name, path)
    assert isinstance(owner, type)
    assert attr in owner.__dict__, f"{path} is not defined on {owner.__name__}"


def test_city_workload_entry_point_exists():
    from repro.core.mechanism import EnkiMechanism

    assert callable(EnkiMechanism.__dict__.get("run_day_columnar_raw"))
