"""The whole ledger, and the comparison of two ledgers.

``run`` gives every workload K timed runs, interleaved round-robin (the
starting workload rotates each round) so that drift on the host hits all
of them alike, then one traced run each.  Every run is ``run.py`` in a
fresh process, exactly as it runs from the command line.  The ledger
JSON keeps every run's values, so ``compare`` can apply the pair rules.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.ledger import stats
from benchmarks.ledger.measure import HERE, OUT, ROOT, load_benchmark

DEFAULT_OUTPUT = OUT / "ledger.json"
#: One run is ~20 s; anything near this is a hang.
RUN_TIMEOUT_S = 600


def _one_run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{name}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workload_entry(spec: dict, bench: dict, runs: List[dict], traced: dict) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    end_to_end = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        summary = stats.summarize(values)
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "values": values, **summary,
            # setup_s is gated on its median only; its spread is not a gate.
            "unstable": metric["name"] != "setup_s"
            and summary["spread"] > metric["bound"],
        }
    return {
        "why": spec["why"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "correct": all(r["correct"] for r in runs) and traced["correct"],
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
    }


def _print_ledger(ledger: dict) -> None:
    print(f"ledger: seed {ledger['seed']}, {ledger['repeats']} runs x "
          f"{ledger['seconds']:g} s per workload, {ledger['wall_s']:.0f} s total")
    print(f"{'workload':<16} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'min':>10} {'max':>10} {'n':>3} {'spread':>7} {'bound':>6}  unit")
    for name, entry in ledger["workloads"].items():
        for metric, m in entry["end_to_end"].items():
            flag = "  UNSTABLE" if m["unstable"] else ""
            print(f"{name:<16} {metric:<12} {m['median']:>10.4g} {m['q1']:>10.4g} "
                  f"{m['q3']:>10.4g} {m['min']:>10.4g} {m['max']:>10.4g} "
                  f"{m['n']:>3} {m['spread']:>7.1%} {m['bound']:>6.0%}  "
                  f"{m['unit']}{flag}")
        print(f"{name:<16} {'fail_ratio':<12} {entry['fail_ratio']:>10.4g}   "
              f"({entry['failed']} of {entry['attempted']} operations)")
    names = list(ledger["workloads"])
    print()
    print(f"{'per-layer (traced run)':<42}" + "".join(f"{n:>17}" for n in names))
    for metric, first in ledger["workloads"][names[0]]["per_layer"].items():
        cells = "".join(
            f"{ledger['workloads'][n]['per_layer'][metric]['value']:>17.5g}"
            for n in names
        )
        print(f"{metric + ' [' + first['unit'] + ']':<42}{cells}")


def run(seed: int, repeats: int, output: Path, *,
        check_noise: bool = False, smoke: bool = False) -> int:
    bench = load_benchmark()
    seconds = float(bench["run_seconds"])
    if smoke:
        repeats, seconds = 1, 1.0
    names = [w["name"] for w in bench["workloads"]]
    started = time.perf_counter()
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for round_index in range(repeats):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            runs[name].append(_one_run(name, seed, seconds, False, smoke))
            print(f"round {round_index + 1}/{repeats} {name}: "
                  f"{runs[name][-1]['metrics']['wall_s']['value']:.3f} s",
                  file=sys.stderr)
    traced = {}
    for name in names:
        traced[name] = _one_run(name, seed, seconds, True, smoke)
        print(f"traced {name}", file=sys.stderr)

    ledger = {
        "schema": "repro-ledger/1",
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "smoke": smoke,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "wall_s": time.perf_counter() - started,
        "workloads": {
            spec["name"]: _workload_entry(spec, bench, runs[spec["name"]],
                                          traced[spec["name"]])
            for spec in bench["workloads"]
        },
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    _print_ledger(ledger)
    print(f"wrote {output}")

    workloads = ledger["workloads"].values()
    if not all(w["correct"] and w["failed"] == 0 for w in workloads):
        print("FAIL: some operations failed or produced wrong output")
        return 1
    if check_noise and any(
        m["unstable"] for w in workloads for m in w["end_to_end"].values()
    ):
        print("FAIL: a metric's run-to-run spread exceeds its bound")
        return 1
    return 0


def _quartiles(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def compare(parent_path: Path, change_path: Path, claims: List[str]) -> int:
    """One row per (workload, metric): B against A, judged by the bound."""
    parent = json.loads(parent_path.read_text(encoding="utf-8"))["workloads"]
    change = json.loads(change_path.read_text(encoding="utf-8"))["workloads"]
    worse = False
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'change':>8}  verdict")
    for name in change:
        if name not in parent:
            continue
        for metric, b in change[name]["end_to_end"].items():
            a = parent[name]["end_to_end"].get(metric)
            if a is None:
                continue
            verdict = stats.verdict(a["values"], b["values"], b["bound"], b["better"])
            worse |= verdict == "worse"
            print(f"{name:<16} {metric:<12} {_quartiles(a):>28} {_quartiles(b):>28} "
                  f"{b['median'] / a['median'] - 1:>+8.1%}  {verdict}")
        # Failures have a bound of zero: any increase is a regression.
        a_fail, b_fail = parent[name]["fail_ratio"], change[name]["fail_ratio"]
        verdict = "worse" if b_fail > a_fail else "within bound"
        worse |= verdict == "worse"
        print(f"{name:<16} {'fail_ratio':<12} {a_fail:>28.4g} {b_fail:>28.4g} "
              f"{'':>8}  {verdict}")

    unmet = False
    for text in claims:
        metric, _, name = text.partition(":")
        a = parent[name]["end_to_end"][metric]
        b = change[name]["end_to_end"][metric]
        result = stats.claim(a["values"], b["values"], b["better"])
        unmet |= not result["met"]
        print(f"claim {metric} on {name}: B wins {result['wins']}/{result['pairs']} "
              f"pairs, median gain {result['median_gain']:.4g} vs parent IQR "
              f"{result['parent_iqr']:.4g}: {'met' if result['met'] else 'NOT met'}")
    return 1 if worse or unmet else 0
