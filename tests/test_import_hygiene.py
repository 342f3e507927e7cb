"""The runtime needs numpy alone: no subpackage may import scipy."""

import subprocess
import sys
import textwrap
from pathlib import Path

SUBPACKAGES = ("array", "serve", "sim", "experiments", "faultinject",
               "workloads", "balance", "analysis", "telemetry")


def test_no_subpackage_imports_scipy():
    """Import everything with scipy hidden; none of it may even be tried."""
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import importlib, sys

        class HideScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ModuleNotFoundError(f"{{name}} is hidden")
                return None

        sys.meta_path.insert(0, HideScipy())
        import repro
        for name in {SUBPACKAGES!r}:
            importlib.import_module(f"repro.{{name}}")
        leaked = sorted(k for k in sys.modules
                        if k == "scipy" or k.startswith("scipy."))
        assert not leaked, leaked
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            cwd=root / "src", capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
