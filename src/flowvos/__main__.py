"""``python -m flowvos``: the command-line interface of ``flowvos.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
