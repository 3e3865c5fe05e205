"""`python -m stardiag`: the same entry point as the `stardiag` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
