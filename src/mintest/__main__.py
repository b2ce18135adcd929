"""``python -m mintest``: the mintest command line."""

import sys

from .cli import main

sys.exit(main())
