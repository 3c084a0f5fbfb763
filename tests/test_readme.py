"""The README's ``python`` blocks run as written against the package in ``src``."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_blocks():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)


def test_readme_python_blocks_run(tmp_path):
    blocks = _python_blocks()
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{code}\n{proc.stderr}"
