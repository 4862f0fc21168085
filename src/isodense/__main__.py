"""python -m isodense: the isodense command line (see isodense.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
