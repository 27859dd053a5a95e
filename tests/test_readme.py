"""The README's library example runs as written, from the names that
`qsagen` exports."""
import os
import re
import subprocess
import sys
from pathlib import Path

import qsagen
from qsagen.ir import parse_english, write_english

ROOT = Path(__file__).resolve().parent.parent


def readme_example() -> str:
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_python_example_runs():
    example = readme_example()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", example], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # It prints the english text of a walk operator, plus print's newline.
    walk = result.stdout[:-1]
    assert walk and write_english(parse_english(walk)) == walk


def test_package_exports_the_names_the_example_imports():
    imports = re.findall(r"^from qsagen import \((.*?)\)", readme_example(), re.M | re.S)
    assert len(imports) == 1
    names = {name.strip() for name in imports[0].split(",")} - {""}
    assert names and names <= set(qsagen.__all__)
    assert [name for name in qsagen.__all__ if not hasattr(qsagen, name)] == []
