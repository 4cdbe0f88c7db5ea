"""``scripts/reach.py`` lists only the one line the command line cannot reach.

``fuzzy.fuzzify`` is called by tests and by ``perfbench``'s hooks, never by
the command line. Any other ``src/`` line that no command runs fails here.
"""

import subprocess
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_only_fuzzify_is_unreached():
    child = subprocess.run(
        [sys.executable, str(REACH)], capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == (
        "nanogrid_ems/fuzzy.py:95: return {t: mf_eval(mf, x) for t, mf in var.terms}\n"
    )
