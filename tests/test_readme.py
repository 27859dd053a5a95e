"""The README's library example runs as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

from qsagen.ir import parse_english, write_english

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # It prints the english text of a walk operator, plus print's newline.
    walk = result.stdout[:-1]
    assert walk and write_english(parse_english(walk)) == walk
