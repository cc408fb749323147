"""The README's "Library quick tour" runs as written and prints what it shows."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_tour_prints_the_line_it_shows():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    shown = re.search(r"^print\(.*\)\n# (.*)$", block, re.M).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [shown]
