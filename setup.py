"""Build script: the package is pure Python; metadata lives in pyproject.toml."""

import setuptools
from setuptools import setup

# setuptools older than 61 ignores [project] metadata and silently installs a
# broken UNKNOWN-0.0.0 distribution; refuse instead. This matters only with
# --no-build-isolation, where the requires list in pyproject.toml is not
# enforced (Ubuntu 22.04 venvs bundle setuptools 59, for example).
_major = int(setuptools.__version__.split(".")[0])
if _major < 61:
    raise SystemExit(
        f"setuptools {setuptools.__version__} cannot read pyproject metadata; "
        "upgrade to setuptools>=61 (pyproject.toml asks for >=68)"
    )

setup()
