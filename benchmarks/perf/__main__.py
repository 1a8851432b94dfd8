"""``python -m benchmarks.perf`` (with the repository root as the working
directory) is the same command as ``python3 benchmarks/perf/run.py``."""

import sys

from .run import main

sys.exit(main())
