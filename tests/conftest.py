import importlib
import pkgutil

from hypothesis import settings

import phacking

# Fixed examples, so every run of the suite checks the same cases.
settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")

# Hypothesis also draws examples from the constants of every loaded module
# that is not a test, and the package loads a submodule only on first use.
# Loading them all here keeps the fixed examples the same whichever test
# modules run.
for submodule in pkgutil.iter_modules(phacking.__path__):
    importlib.import_module(f"phacking.{submodule.name}")
