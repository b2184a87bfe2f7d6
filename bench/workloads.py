"""Workload definitions: the `uvi` commands and configs one round runs.

A workload is a list of operations, each one `uvi run <config>` or
`uvi sweep <config> --T ...`. Everything seed-dependent (game matrices,
noise streams) is drawn from the benchmark's ``--seed`` with Python's own
generator, so the same seed always gives the same configs and the program
receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

SWEEP_T = (500, 1000, 2000, 4000)
NOISE_BOUND = 0.5


@dataclass(frozen=True)
class Operation:
    """One CLI invocation; ``t_list`` is set for `uvi sweep`."""

    command: str
    config: dict
    t_list: Optional[tuple] = None

    @property
    def solves(self) -> List[tuple]:
        """(T, seed) of every solve: the unit counted as attempted or failed."""
        budgets = self.t_list if self.t_list is not None else (self.config["T"],)
        return [(T, s) for T in budgets for s in self.config["seeds"]]

    def argv(self, config_path: str) -> List[str]:
        if self.command == "sweep":
            return ["sweep", config_path, "--T", ",".join(str(t) for t in self.t_list)]
        return ["run", config_path]


def _small_stoch_sweep(rng: random.Random) -> List[Operation]:
    # Record and eval spacing equal max(T), so every sweep point records
    # and evaluates only its final step.
    spacing = max(SWEEP_T)
    common = {
        "T": SWEEP_T[0],
        "noise": {"bound": NOISE_BOUND},
        "record_every": spacing,
        "eval_every": spacing,
    }
    game_seed = rng.randrange(2**31)
    return [
        Operation("sweep", {
            **common,
            "problem": {"name": "random-game",
                        "params": {"d1": 3, "d2": 3, "seed": game_seed}},
            "seeds": [rng.randrange(2**31) for _ in range(2)],
        }, SWEEP_T),
        Operation("sweep", {
            **common,
            "problem": {"name": "l1-ball", "params": {}},
            "seeds": [rng.randrange(2**31) for _ in range(2)],
        }, SWEEP_T),
    ]


def _large_game(rng: random.Random) -> List[Operation]:
    return [Operation("run", {
        "problem": {"name": "random-game",
                    "params": {"d1": 1000, "d2": 1000, "seed": rng.randrange(2**31)}},
        "T": 1000,
        "seeds": [0],
        "record_every": 100,
        "eval_every": 100,
    })]


def _full_trace(rng: random.Random) -> List[Operation]:
    return [Operation("run", {
        "problem": {"name": "random-game",
                    "params": {"d1": 300, "d2": 300, "seed": rng.randrange(2**31)}},
        "T": 2000,
        "noise": {"bound": NOISE_BOUND},
        "seeds": [rng.randrange(2**31) for _ in range(2)],
        "record_every": 1,
        "eval_every": 1,
    })]


WORKLOADS = {
    "small-stoch-sweep": _small_stoch_sweep,
    "large-game": _large_game,
    "full-trace": _full_trace,
}


def build(name: str, seed: int) -> List[Operation]:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
