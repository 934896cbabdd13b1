"""Cold start: a fresh interpreter imports polymix and answers one query.

    python3 coldstart.py ARGS...   (ARGS as for the polymix command)
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from polymix.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
