"""``python -m tfuncert``: the ``tfuncert`` command line from a checkout."""
import sys

from .cli import main

sys.exit(main())
