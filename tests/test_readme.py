"""README's library examples run as written.

Each ```python block of README.md runs in a fresh interpreter, with the
package's source on the import path and an empty working directory, and
must exit with status 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_python_blocks_run(tmp_path):
    assert BLOCKS
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for code in BLOCKS:
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
