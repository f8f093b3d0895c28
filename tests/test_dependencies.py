"""fmlab runs on numpy and the standard library alone."""
import os
import subprocess
import sys

import fmlab

# Lists each top-level module that importing the package and its CLI loads
# and that is neither numpy, fmlab nor part of the standard library.
_PROBE = """
import sys
before = set(sys.modules)
import fmlab, fmlab.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "fmlab"}))
"""


def test_fmlab_and_its_cli_import_only_numpy_and_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fmlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
