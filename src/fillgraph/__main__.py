"""``python -m fillgraph``: the command line of :mod:`fillgraph.cli`."""

import sys

from .cli import main

sys.exit(main())
