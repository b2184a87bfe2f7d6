"""The three benchmark workloads at benchmark seed 1, run through the CLI,
write the bytes stored in ``fixtures/workload_outputs.json``.

The configs are copied here, not imported from ``bench/``, so that the
golden pins the library's output for fixed inputs. ``large-game`` holds the
only payoff matrix of at least 4 MiB, so it is the one whose products run on
the helper thread (see ``uvi.operators``).
"""

import hashlib
import json
from pathlib import Path

import pytest

import uvi.cli as cli

SWEEP_T = "500,1000,2000,4000"
SWEEP_COMMON = {"T": 500, "noise": {"bound": 0.5}, "record_every": 4000, "eval_every": 4000}

WORKLOADS = {
    "small-stoch-sweep": [
        ("sweep", {**SWEEP_COMMON,
                   "problem": {"name": "random-game",
                               "params": {"d1": 3, "d2": 3, "seed": 1589676575}},
                   "seeds": [1269168632, 1447964465]}),
        ("sweep", {**SWEEP_COMMON,
                   "problem": {"name": "l1-ball", "params": {}},
                   "seeds": [1803897570, 1053334273]}),
    ],
    "large-game": [
        ("run", {"problem": {"name": "random-game",
                             "params": {"d1": 1000, "d2": 1000, "seed": 902414245}},
                 "T": 1000, "seeds": [0], "record_every": 100, "eval_every": 100}),
    ],
    "full-trace": [
        ("run", {"problem": {"name": "random-game",
                             "params": {"d1": 300, "d2": 300, "seed": 1273532321}},
                 "T": 2000, "noise": {"bound": 0.5}, "seeds": [982539326, 1175893156],
                 "record_every": 1, "eval_every": 1}),
    ],
}


def workload_outputs(name, tmp_path, monkeypatch):
    """[{"exit": code, "files": {path: sha256}}] for each operation of a
    workload, each written to its own directory through ``UVI_OUTPUT_DIR``."""
    outputs = []
    for i, (command, config) in enumerate(WORKLOADS[name]):
        path = tmp_path / f"op{i}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / f"op{i}"
        monkeypatch.setenv("UVI_OUTPUT_DIR", str(out))
        argv = [command, str(path)] + (["--T", SWEEP_T] if command == "sweep" else [])
        code = cli.main(argv)
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        outputs.append({"exit": code, "files": files})
    return outputs


FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "workload_outputs.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_bytes_unchanged(name, tmp_path, monkeypatch, capsys):
    assert workload_outputs(name, tmp_path, monkeypatch) == FIXTURE[name]
    assert capsys.readouterr().err == ""
