"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps package
functions by module and name from outside the package. Each name it lists
must still exist, or the traced run breaks; this test reads the tracer and
changes nothing under ``perfbench/``."""

import importlib
import types
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    # compiled from its text, so no bytecode is written next to the file
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_wraps_every_listed_name_and_restores_it():
    lt = _load_layertrace()
    names = [(module, attr) for module, attr, _ in lt.SPANNED + lt.GENERATORS + lt.COUNTED]
    originals = {name: _lookup(*name) for name in names}
    tracer = lt.Tracer()
    try:
        tracer.install()
        for name, orig in originals.items():
            wrapped = _lookup(*name)
            assert wrapped is not orig, name
            assert wrapped.__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    for name, orig in originals.items():
        assert _lookup(*name) is orig, name
