"""The benchmark tracer wraps named fmlab functions and methods; a rename
or removal of any of them must fail here, not only in the benchmark."""
import importlib.util
from pathlib import Path

from fmlab import cli, masks, metrics, neural, rasters, sampler

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_name_and_uninstall_restores_them():
    owners = (cli, masks, metrics, neural, rasters, sampler, neural.VelocityModel)
    before = [dict(vars(owner)) for owner in owners]
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys()
        changed = [name for name, value in snapshot.items() if after[name] is not value]
        assert not changed, (owner, changed)
