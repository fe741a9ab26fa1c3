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
