"""``scripts/reach.py`` lists only the one line the command line cannot reach.

``fuzzy.fuzzify`` is called by tests and by ``perfbench``'s hooks, never by
the command line. Any other ``src/`` line that no command runs fails here.
"""

import inspect
import subprocess
import sys
from pathlib import Path

from nanogrid_ems.fuzzy import fuzzify

REACH = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_only_fuzzify_is_unreached():
    # fuzzify's body is its one return line, wherever fuzzy.py puts it.
    lines, first = inspect.getsourcelines(fuzzify)
    body = lines[-1].strip()
    assert body.startswith("return ")
    child = subprocess.run(
        [sys.executable, str(REACH)], capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"nanogrid_ems/fuzzy.py:{first + len(lines) - 1}: {body}\n"
