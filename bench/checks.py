"""Output checks computed from the inputs and from properties the method has.

Nothing here imports `uvi` or compares with a stored copy of earlier output.
Each check reads the files one `uvi run` or `uvi sweep` wrote and returns
the problems it found, keyed by solve: ``(T, seed)``.

* ``eta`` never increases along a trace.
* Where every step is recorded, ``eta_t = D / sqrt(G0^2 + sum_{tau<t} z_sq)``
  is recomputed from the trace's own ``z_sq`` column.
* ``G`` is computed from the problem's definition: ``max|A| sqrt(log d1 +
  log d2)`` for a random game (its matrix is regenerated from the game
  seed), ``sqrt(dim)`` for `l1-ball`, plus the noise bound. The movement
  ratios must stay within ``G`` and every ``z_sq`` within ``G^2``.
* The regret bound: ``lemma3_lhs <= lemma3_rhs``.
* Every gap is finite and non-negative; the trace's last gap equals the
  summary's ``final_gap``; ``mean_final_gap`` is the mean over seeds.
* A sweep's summary matches its per-T runs; on `l1-ball` the mean gap
  falls from the smallest T to the largest with a fitted log-log exponent
  of at most ``-0.35`` (the noisy regime).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

MOVEMENT_TOL = 1e-9
REL_TOL = 1e-12
MAX_NOISY_EXPONENT = -0.35
# Problems whose sweeps the decay check applies to; see README.md.
DECAY_CHECKED = ("l1-ball",)

Problems = Dict[Tuple[int, int], List[str]]


def operator_bound(problem: dict, noise_bound: float) -> float:
    """G from the problem definition, plus the noise bound."""
    name, params = problem["name"], problem.get("params", {})
    if name == "random-game":
        d1, d2 = int(params.get("d1", 3)), int(params.get("d2", 3))
        rng = np.random.default_rng(int(params.get("seed", 0)))
        amax = float(np.abs(rng.uniform(-1.0, 1.0, size=(d1, d2))).max())
        return amax * math.sqrt(math.log(d1) + math.log(d2)) + noise_bound
    if name == "l1-ball":
        dim = len(params.get("x0", (-0.16, -0.6, 0.4)))
        return math.sqrt(dim) + noise_bound
    raise ValueError(f"no operator bound known for problem {name!r}")


def diameter(problem: dict) -> float:
    """Bregman diameter D of the problem's feasible set."""
    name, params = problem["name"], problem.get("params", {})
    if name == "random-game":
        return math.sqrt(2.0)  # product geometry: range of R is [0, 2]
    if name == "l1-ball":
        return float(params.get("radius", 1.0)) / math.sqrt(2.0)
    raise ValueError(f"no diameter known for problem {name!r}")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def read_trace(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,eta,z_sq,gap_of_running_avg":
        raise ValueError(f"{path.name}: unexpected header")
    t, eta, z_sq, gaps = [], [], [], []
    for line in lines[1:]:
        a, b, c, d = line.split(",")
        t.append(int(a))
        eta.append(float(b))
        z_sq.append(float(c))
        gaps.append(float(d) if d else None)
    return {"t": t, "eta": eta, "z_sq": z_sq, "gap": gaps}


def check_trace(trace: dict, config: dict, T: int, g_bound: float, d: float) -> List[str]:
    """Problems in one seed's trace CSV."""
    out = []
    record_every, eval_every = config["record_every"], config["eval_every"]
    expected_t = list(range(record_every, T + 1, record_every))
    if not expected_t or expected_t[-1] != T:
        expected_t.append(T)
    if trace["t"] != expected_t:
        return [f"trace rows at t={trace['t'][:5]}..., expected every {record_every} up to {T}"]
    eta, z_sq = trace["eta"], trace["z_sq"]
    for i in range(1, len(eta)):
        if eta[i] > eta[i - 1]:
            out.append(f"eta increases at t={trace['t'][i]}: {eta[i - 1]!r} -> {eta[i]!r}")
            break
    if record_every == 1:
        g0 = float(config.get("g0", 1.0))
        accum = 0.0
        for t, (e, z) in enumerate(zip(eta, z_sq), start=1):
            expected = d / math.sqrt(g0 * g0 + accum)
            if not _close(e, expected):
                out.append(f"eta at t={t} is {e!r}, recomputed {expected!r}")
                break
            accum += z
    for t, z in zip(trace["t"], z_sq):
        if not (math.isfinite(z) and z <= g_bound * g_bound + MOVEMENT_TOL):
            out.append(f"z_sq={z!r} at t={t} exceeds G^2={g_bound * g_bound!r}")
            break
    for t, g in zip(trace["t"], trace["gap"]):
        scheduled = t % eval_every == 0 or t == T
        if scheduled != (g is not None):
            out.append(f"gap at t={t} {'missing' if scheduled else 'unexpected'}")
            break
        if g is not None and not (math.isfinite(g) and g >= 0.0):
            out.append(f"gap {g!r} at t={t} is negative or not finite")
            break
    return out


def check_run_dir(out: Path, config: dict, T: int) -> Problems:
    """Problems per seed in the output of one `uvi run` with budget T."""
    seeds = [int(s) for s in config["seeds"]]
    problems: Problems = {(T, s): [] for s in seeds}

    def everyone(msg):
        for lst in problems.values():
            lst.append(msg)

    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        everyone(f"summary.json unreadable: {exc}")
        return problems
    noise = (config.get("noise") or {}).get("bound", 0.0)
    g_bound = operator_bound(config["problem"], float(noise))
    d = diameter(config["problem"])
    entries = {int(e["seed"]): e for e in summary.get("per_seed", [])}
    if summary.get("T") != T or sorted(entries) != sorted(seeds):
        everyone(f"summary holds T={summary.get('T')} seeds={sorted(entries)}")
        return problems

    finals = []
    for seed in seeds:
        entry, mine = entries[seed], problems[(T, seed)]
        final = entry.get("final_gap")
        finals.append(final)
        if not (isinstance(final, float) and math.isfinite(final) and final >= 0.0):
            mine.append(f"final_gap {final!r} is negative or not finite")
        for key in ("max_xy_ratio", "max_yy_ratio"):
            if not entry[key] <= g_bound + MOVEMENT_TOL:
                mine.append(f"{key}={entry[key]!r} exceeds G={g_bound!r}")
        if not entry["max_z_sq"] <= g_bound * g_bound + MOVEMENT_TOL:
            mine.append(f"max_z_sq={entry['max_z_sq']!r} exceeds G^2={g_bound ** 2!r}")
        if config["record_every"] == 1:
            lhs, rhs = entry.get("lemma3_lhs"), entry.get("lemma3_rhs")
            if lhs is None or rhs is None or not lhs <= rhs + 1e-9 * max(1.0, abs(rhs)):
                mine.append(f"regret bound fails: lhs={lhs!r} rhs={rhs!r}")
        try:
            trace = read_trace(out / f"trace_{seed}.csv")
        except (OSError, ValueError) as exc:
            mine.append(f"trace_{seed}.csv unreadable: {exc}")
            continue
        mine.extend(check_trace(trace, config, T, g_bound, d))
        last = trace["gap"][-1] if trace["gap"] else None
        if last is None or final is None or not _close(last, final):
            mine.append(f"trace final gap {last!r} differs from final_gap {final!r}")
    if all(isinstance(f, float) for f in finals):
        mean = summary.get("mean_final_gap")
        if mean is None or not _close(mean, float(np.mean(finals)), 1e-9):
            everyone(f"mean_final_gap {mean!r} is not the mean of {finals!r}")
    return problems


def fit_exponent(t_values, gaps) -> float:
    slope, _ = np.polyfit(np.log(t_values), np.log(gaps), 1)
    return float(slope)


def check_sweep(base: Path, config: dict, t_list) -> Problems:
    """Problems per (T, seed) in the output of one `uvi sweep`."""
    problems: Problems = {}
    means = []
    for T in t_list:
        problems.update(check_run_dir(base / f"T_{T}", {**config, "T": T}, T))
        try:
            summary = json.loads((base / f"T_{T}" / "summary.json").read_text(encoding="utf-8"))
            means.append(float(summary["mean_final_gap"]))
        except (OSError, ValueError, KeyError, TypeError):
            means.append(math.nan)

    def everyone(msg):
        for lst in problems.values():
            lst.append(msg)

    try:
        sweep = json.loads((base / "sweep_summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        everyone(f"sweep_summary.json unreadable: {exc}")
        return problems
    if sweep.get("t_values") != list(t_list) or not all(
            _close(a, b) for a, b in zip(sweep.get("mean_final_gaps", []), means)):
        everyone("sweep_summary.json disagrees with its per-T summaries")
        return problems
    if not all(math.isfinite(m) and m > 0 for m in means):
        return problems  # already reported per T
    exponent = fit_exponent(t_list, means)
    reported = (sweep.get("rate_fit") or {}).get("exponent")
    if reported is None or abs(reported - exponent) > 1e-9:
        everyone(f"rate_fit exponent {reported!r}, refitted {exponent!r}")
    if config["problem"]["name"] in DECAY_CHECKED:
        if not means[-1] < means[0]:
            everyone(f"mean gap does not fall: T={t_list[0]}: {means[0]!r}, "
                     f"T={t_list[-1]}: {means[-1]!r}")
        if not exponent <= MAX_NOISY_EXPONENT:
            everyone(f"fitted exponent {exponent:.4f} slower than {MAX_NOISY_EXPONENT}")
    return problems


def check_operation(op, out: Path) -> Problems:
    if op.command == "sweep":
        return check_sweep(out, op.config, op.t_list)
    return check_run_dir(out, op.config, op.config["T"])
