"""``python -m trace_turan``: the ``trace-turan`` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
