"""Every per-function metric the benchmark tracer reports names a function
or method of ditred that the tracer wraps.  `Tracer.metrics` looks each
reported name up by key, so a deleted or renamed one breaks
`perfbench/run.py --trace 1` with a KeyError."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ditred

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _wrapped(tracer, name) -> bool:
    """Whether `Tracer.install` wraps a function under this reported name:
    a public function defined in its layer module, or a public method (or
    a renamed special method) of a class defined there."""
    layer, *rest = name.split(".")
    if layer not in tracer.LAYERS:
        return False
    mod = importlib.import_module(f"{ditred.__name__}.{layer}")
    if len(rest) == 1:
        obj = vars(mod).get(rest[0])
        return not rest[0].startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    cls_name, label = rest
    cls = vars(mod).get(cls_name)
    if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
        return False
    special = {lab: attr for attr, lab in tracer.SPECIAL.get((layer, cls_name), {}).items()}
    if label.startswith("_") and label not in special:
        return False
    raw = vars(cls).get(special.get(label, label))
    return isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw)


def test_reported_names_resolve():
    tracer = _load_tracer()
    assert tracer.REPORTED
    missing = [nm for nm in tracer.REPORTED if not _wrapped(tracer, nm)]
    assert missing == []


def test_guard_rejects_unknown_names():
    tracer = _load_tracer()
    for nm in ("algebras.AlgMod.radical_series", "algebras._rad_of", "algebras.FDAlgebra._assert_nil_ideal",
               "linalg.Mat.new", "cli.main", "algebras.Span"):
        assert not _wrapped(tracer, nm), nm
