"""``np``: numpy, imported on first use.

Importing numpy is most of the package's start-up, and a command that
computes nothing (``--version``, ``--help``, a usage error) never needs
it.  So ``np`` is the real numpy when it is already imported, and
otherwise a module whose first attribute access runs numpy's import
(``importlib.util.LazyLoader``).  No module-level statement of the
package may touch ``np``.

``LazyLoader`` is not thread-safe before Python 3.12: two threads that
touch ``np`` first at once can both run the import.  Nothing in the
package touches ``np`` from a thread.
"""

import importlib.util
import sys


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
