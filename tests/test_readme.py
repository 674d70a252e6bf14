"""The README's python example runs, and its simulate configs are valid,
against the current API."""

import json
import re
from pathlib import Path

import numpy as np

from panelcluster.simulation import SimulationConfig

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


def test_readme_simulate_configs_are_valid():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4, "README lost its simulate configs"
    for block in blocks:
        raw = json.loads(block)
        ns, Ts = (raw[key] if isinstance(raw[key], list) else [raw[key]]
                  for key in ("n", "T"))
        for n in ns:
            for T in Ts:
                SimulationConfig(**{**raw, "n": n, "T": T})
