"""``python -m batchlat``: the same command line as the ``batchlat`` script."""

import sys

from .cli import main

sys.exit(main())
