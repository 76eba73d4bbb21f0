"""``python -m repro`` entry point.

Every localhost worker subprocess runs it too (``python -m repro
cluster worker``, launched by ``Runner(max_workers=N)`` and ``repro
sweep --workers N``; see ``repro.cluster.executor``).
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
