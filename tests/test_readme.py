"""The README's python examples run as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
        if k == 0:
            # the printed claim: the order-20 sum tracks the exact form
            gap = np.max(np.abs(namespace["total"] - namespace["ref"]))
            assert gap < 1e-9
