import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_package_loads_no_module():
    """`import xrwa` in a fresh interpreter leaves every `xrwa.*` module unloaded."""
    script = (
        "import sys\n"
        "import xrwa\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('xrwa.'))\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": str(SRC)})


def test_no_module_loads_cryptographys_serialization_package():
    """Every `xrwa.*` module imported into one fresh interpreter leaves
    `cryptography.hazmat.primitives.serialization` unloaded: a key is read
    as its raw bytes, and that package would load some 34 modules."""
    modules = sorted(f"xrwa.{path.stem}" for path in (SRC / "xrwa").glob("*.py") if path.stem != "__init__")
    assert "xrwa.cli" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "assert 'cryptography.hazmat.primitives.serialization' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
