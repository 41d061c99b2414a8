"""Process entry: ``python -m gramdist`` and the ``gramdist`` console script.

Both run :func:`entry`, which freezes the import-time heap and then runs
:func:`gramdist.cli.main`.  The modules imported by then (numpy and the
gramdist layers) leave tens of thousands of long-lived objects behind;
``gc.freeze()`` moves them to the permanent generation, so neither a
collection during the command nor the collections of interpreter shutdown
walk them again.  That is a process-wide effect, which is why it lives here
and not in ``main(argv)``: tests and in-process callers run ``main``, and
importing this module runs nothing.
"""

import gc

from .cli import main


def entry() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
