"""Guards on the exception hierarchy: one base, one definition per name,
no catch-all handlers."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import ditred
from ditred.errors import DitredError

SRC = Path(ditred.__file__).resolve().parent


def _exception_classes():
    """(module name, class) for every exception class defined in ditred."""
    out = []
    for info in pkgutil.iter_modules([str(SRC)]):
        mod = importlib.import_module(f"ditred.{info.name}")
        for obj in vars(mod).values():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__:
                out.append((mod.__name__, obj))
    return out


def test_every_exception_class_derives_from_ditred_error():
    classes = _exception_classes()
    assert len(classes) > 10
    bad = [f"{m}.{c.__name__}" for m, c in classes if not issubclass(c, DitredError)]
    assert bad == []


def test_no_exception_name_is_defined_twice():
    seen = {}
    for m, c in _exception_classes():
        seen.setdefault(c.__name__, []).append(m)
    assert {n: ms for n, ms in seen.items() if len(ms) > 1} == {}


def test_no_catch_all_handlers():
    pattern = re.compile(r"^\s*except(\s+(Base)?Exception\b.*)?\s*:", re.M)
    hits = [f"{p.name}: {m.group(0).strip()}" for p in sorted(SRC.glob("*.py"))
            for m in pattern.finditer(p.read_text())]
    assert hits == []
