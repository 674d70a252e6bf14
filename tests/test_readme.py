"""The README's python example runs, its simulate configs are valid and
the constants it names exist with the values it gives, against the current
API; the CI workflow runs ROADMAP's tier-1 command."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np

import panelcluster
from panelcluster.simulation import SimulationConfig

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_readme_constants_exist_with_the_values_it_gives():
    modules = {name: importlib.import_module(f"panelcluster.{name}")
               for _, name, _ in pkgutil.iter_modules(panelcluster.__path__)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = 0
    for span in spans:
        # `module.NAME = value` (or `NAME = value`, of any module): the
        # constant has that value
        setting = re.fullmatch(r"(?:(\w+)\.)?([A-Z][A-Z0-9_]*) = (\S+)", span)
        if setting:
            module, name, value = setting.groups()
            owners = [modules[module]] if module else [
                m for m in modules.values() if hasattr(m, name)]
            assert owners, span
            expected = eval(value, {"__builtins__": {}})
            assert all(getattr(m, name) == expected for m in owners), span
            named += 1
            continue
        # any other UPPER_CASE name with an underscore is some module's
        for name in re.findall(r"(?<![\w.])[A-Z][A-Z0-9]*_[A-Z0-9_]+\b",
                               span):
            assert any(hasattr(m, name) for m in modules.values()), span
            named += 1
    assert named >= 5, "README names no module constants"


def test_ci_runs_the_roadmap_tier1_command_under_a_timeout():
    # plain text matching: the workflow does not install PyYAML
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$",
                        (ROOT / "ROADMAP.md").read_text(), re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"^      - name: Tier-1 tests\n        run: (.+)$",
                     workflow, re.M)
    assert step and step.group(1) == command
    # a job-level limit, so a hung run does not hold a runner for hours
    assert re.search(r"^    timeout-minutes: [1-9][0-9]*$", workflow, re.M)
