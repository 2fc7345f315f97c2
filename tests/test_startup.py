"""What `import ditred` loads in a fresh interpreter.

The library's own modules load eagerly; stdlib modules that only a few
functions need (`json` for trace serialization, `hashlib` for layer
content hashes) are imported inside those functions, and nothing pulls
in `dataclasses` (and with it `inspect`).
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# stdlib modules no import-time code of ditred needs
NOT_AT_IMPORT = ("dataclasses", "inspect", "json", "hashlib")


def test_import_loads_every_submodule_and_no_deferred_stdlib():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ditred; "
            f"print([m for m in {NOT_AT_IMPORT!r} if m in sys.modules]); "
            "print(sorted(m for m in sys.modules if m.startswith('ditred.')))")
    proc = subprocess.run([sys.executable, "-E", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded_stdlib, loaded_ditred = map(ast.literal_eval, proc.stdout.splitlines())
    assert loaded_stdlib == []
    # every module of the package but `cli`, the command-line entry point
    # (`ditred.cli:main`), which `import ditred` does not load
    want = sorted(f"ditred.{p.stem}" for p in (SRC / "ditred").glob("*.py")
                  if p.stem not in ("__init__", "cli"))
    assert loaded_ditred == want
