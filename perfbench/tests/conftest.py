"""Make the benchmark modules and the checkout's ``repro`` importable."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from workloads import use_source_tree  # noqa: E402

use_source_tree()
