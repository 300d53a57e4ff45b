"""`python -m linrelay`: the command-line interface of linrelay.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
