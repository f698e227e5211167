"""``python -m dyadsync``: the same command-line interface as ``dyadsync``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
