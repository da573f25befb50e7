"""The README runs as written and documents the config schema the CLI checks."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    pair = namespace["pair"]
    assert pair.converged and pair.residual <= 1e-6


def test_readme_config_keys_match_the_schema():
    """README's key list is the CLI's schema table: every key of each section and each
    command's top-level keys, with the kind of its value and the CLI's own default."""
    from vexspec import cli

    rows = re.findall(r"^\| `([\w-]+)` \| `(\w+)` \| ([^|]+?) \| ([^|]+?) \|$",
                      README.read_text(), flags=re.M)
    listed = {(where, key): (kind, default) for where, key, kind, default in rows}
    assert len(listed) == len(rows), "README lists a key twice"
    kinds = {name: cli._SCHEMA[name] for name in ("problem", "constants", "solver")}
    for command in cli.COMMANDS:
        kinds[command] = {key: cli._SCHEMA["config"][key] for key in cli._DEFAULTS[command]}
    expected = {(where, key): (cli._KINDS[kind][0], cli._DEFAULTS.get(where, {}).get(key))
                for where in kinds for key, kind in kinds[where].items()}
    assert set(listed) == set(expected)
    for item, (kind, default) in expected.items():
        assert listed[item][0] == kind, item
        if default is None:
            assert listed[item][1] != cli._REQUIRED, item
        else:
            text = default if default is cli._REQUIRED else f"`{json.dumps(default)}`"
            assert listed[item][1] == text, item
