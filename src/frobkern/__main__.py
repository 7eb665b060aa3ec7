"""`python -m frobkern`: the same command line as the `frobkern` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
