"""`python -m omega23 ...` runs the omega23 command line."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module (as pkgutil walks do) runs nothing
    sys.exit(main())
