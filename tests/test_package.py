import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import vcdetect

# The library modules; cli and __main__ are the command line and export nothing.
MODULES = ("bounds", "detector", "experiment", "geometry", "scenario")
ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_exists():
    for name in MODULES:
        module = importlib.import_module(f"vcdetect.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


def test_package_imports_only_public_names():
    # __init__.py star-imports these four modules, so each __all__ is the one
    # list of public names. Submodules (vcdetect.cli, vcdetect.experiment) are
    # package attributes once imported anywhere, and are not exported names.
    exported = {name for module in ("bounds", "detector", "geometry", "scenario")
                for name in importlib.import_module(f"vcdetect.{module}").__all__}
    public = {name for name, value in vars(vcdetect).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == exported


def test_version_matches_pyproject():
    # A regex, since tomllib is missing before Python 3.11.
    match = re.search(r'^version = "([^"]+)"', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert match and vcdetect.__version__ == match.group(1)


def test_bounds_loads_no_experiment_runner():
    # The bound calculators need only the geometry, not the Monte Carlo driver.
    code = "import sys, vcdetect.bounds; assert 'vcdetect.experiment' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cli_loads_no_process_pool():
    # Trials run in the calling process, so starting the CLI loads no pool machinery.
    code = ("import sys, vcdetect.cli; "
            "assert not {'multiprocessing', 'concurrent.futures'} & set(sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
