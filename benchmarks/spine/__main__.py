"""``PYTHONPATH=src python -m benchmarks.spine ...``"""

import sys

from benchmarks.spine.cli import main

sys.exit(main())
