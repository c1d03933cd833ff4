"""Command line for ``python -m permfact``; the same as the ``permfact`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
