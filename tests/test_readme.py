"""Every python block of README.md runs against the current API, and its
JSON config document runs through ``uvi run``."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import uvi.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
(CONFIG,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
# The fixed-step alternative that the paragraph under the config gives.
(FIXED_MODE,) = re.findall(r"^`mode` may also be `(\{.*?\})`", TEXT, re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("mode", [None, FIXED_MODE], ids=["as-given", "fixed-step"])
def test_readme_config_runs(tmp_path, monkeypatch, capsys, mode):
    doc = json.loads(CONFIG)
    if mode is not None:
        doc["mode"] = json.loads(mode)
    config = cli.ExperimentConfig.from_dict(doc)
    assert (config.solve.iterations, config.seeds) == (doc["T"], tuple(doc["seeds"]))
    # A shorter budget, written under the test's own directory.
    doc.update(T=200, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.delenv("UVI_OUTPUT_DIR", raising=False)
    assert cli.cmd_run(str(path)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["T"] == 200 and summary["mode"] == doc["mode"]["kind"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "summary.json", "trace_0.csv", "trace_1.csv"]
