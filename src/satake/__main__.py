"""``python -m satake``: the same command line as the ``satake`` script."""
import sys

from .cli import main

sys.exit(main())
