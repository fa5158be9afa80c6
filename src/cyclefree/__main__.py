"""``python -m cyclefree``: the command line of :mod:`cyclefree.cli`."""

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    raise SystemExit(main())
