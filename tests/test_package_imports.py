"""The package imports with its declared dependencies only.

``pyproject.toml`` declares numpy alone, so nothing on the import path
of the library, the campaign layer or the CLI may pull in scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_scipy_on_the_import_path():
    probe = (
        "import sys\n"
        "import repro, repro.injection.campaign, repro.__main__\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"
