"""The README's python example runs against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python code block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    n = namespace["table"].n
    assert namespace["V"].shape == (n, n)
    labels = namespace["labels"]
    assert labels.shape == (n,) and set(labels) <= {1, 2, 3}
