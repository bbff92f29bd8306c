"""``python -m thermaljc``: the command line of :mod:`thermaljc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
