"""The README's Python examples run as written against the installed names,
and its config example loads as a config."""

import json
import re
from pathlib import Path

from twinbeam_transfer.scenario import ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def _first_option(value):
    # the example writes alternatives as "a | b"; take the first
    if isinstance(value, dict):
        return {key: _first_option(item) for key, item in value.items()}
    if isinstance(value, str):
        return value.split(" | ")[0]
    return value


def test_readme_config_example_matches_schema():
    # a key the config no longer has is an error, so a stale example fails here
    block, = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)
    ScenarioConfig.from_dict(_first_option(json.loads(block)))
