"""Benchmark for effhom: homotopy groups and k-invariants, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spheres|stacked|postnikov_eval|all
                             --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

- spheres: `effhom pi` on S^3 (k = 5), S^2 (k = 4) and wedges of 2, 3, 4
  two-spheres (k = 3).
- stacked: `effhom pi --k 3` on stacked 2-spheres with 16, 32, 64 and 128
  vertices, grown by seeded stellar subdivisions.
- postnikov_eval: the S^2 tower to k = 4, then k_2 evaluated on seeded
  simplices of P_2.

A closed loop with one client: every unit of work runs in a fresh worker
interpreter (perfbench/worker.py), one at a time.  A round is one pass
over the workload's units.  A run makes a fixed number of whole rounds,
sized from `--seconds` by NOMINAL_ROUND_S, so its work and its operation
count depend only on the workload, the seed and `--seconds`.  Answers
are checked against oracles computed apart from the program (inputs.py).

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-module metrics from
traced rounds under PYTHONHASHSEED 0 and 1, and names any counter that
differs between them.
Scratch files (input documents, results, traces) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150
TRACED_HASHSEEDS = ("0", "1")

SPHERES = [
    {"name": "pi_5(S3)", "input": "sphere", "n": 3, "k": 5},
    {"name": "pi_4(S2)", "input": "sphere", "n": 2, "k": 4},
    {"name": "pi_3(S2vS2)", "input": "wedge", "n": 2, "k": 3},
    {"name": "pi_3(3 S2)", "input": "wedge", "n": 3, "k": 3},
    {"name": "pi_3(4 S2)", "input": "wedge", "n": 4, "k": 3},
]
# five sizes, so that the median query of a round is one sphere (48)
STACKED_VERTICES = (16, 32, 48, 64, 128)
# seconds one round takes on a 2-core x86-64 machine; a run of S seconds
# makes round(S / this) rounds, so its work depends only on S
NOMINAL_ROUND_S = {"spheres": 10.0, "stacked": 10.0, "postnikov_eval": 6.0}
# k_2 is timed on 4-simplices of P_2 whose cocycle has 5..10 nonzero
# values, 20 of each per round; (m, labels, count).  The checks add
# untimed 5-simplices, whose images must be cocycles.
KINV_SCHEDULE = [(4, labels, 20) for labels in range(5, 11)]
KINV_CHECK_SCHEDULE = [(5, 12, 4)]
KINV_PHI_CHECKS = 20

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "size_exponent": "slope", "op_ms.p50": "ms", "op_ms.p90": "ms"}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def units(workload: str, seed: int, rnd: int = 0):
    """The worker specs of round `rnd` of a workload."""
    if workload == "spheres":
        queries = [dict(q) for q in SPHERES]
    elif workload == "stacked":
        queries = [{"name": f"pi_3(stacked {v})", "input": "stacked", "n": v,
                    "k": 3, "seed": f"{seed}:{v}:{rnd}"}
                   for v in STACKED_VERTICES]
    else:
        return [{"mode": "kinv", "seed": f"{seed}:{rnd}",
                 "schedule": KINV_SCHEDULE,
                 "check_schedule": KINV_CHECK_SCHEDULE,
                 "phi_checks": KINV_PHI_CHECKS}]
    specs = []
    for q in queries:
        doc = inputs.build_document(q)
        if q["input"] == "stacked" and not \
                inputs.is_closed_surface_with_euler_2(doc["facets"]):
            raise BenchmarkError(f"{q['name']} is not a 2-sphere")
        q["size"] = inputs.document_size(doc)
        specs.append({"mode": "query", "query": q,
                      "verify": workload == "spheres",
                      "doc_path": str(OUT / "docs" / f"{workload}-{q['n']}.json")})
    return specs


def rounds_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def run_worker(spec: dict, hashseed: str) -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {spec.get('query', spec)} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run_round(specs, trace: bool, hashseed: str = "0") -> list:
    results = []
    for spec in specs:
        res = run_worker(dict(spec, trace=trace), hashseed)
        res["query"] = spec.get("query")
        results.append(res)
    return results


def round_seconds(results: list) -> float:
    """The summed time of a round's timed operations."""
    return sum(op["s"] for res in results for op in res["ops"])


def check_round(results: list, problems: list) -> int:
    """Check every answer of a round; return the number of failed ops."""
    failed = 0
    for res in results:
        problems.extend(res["failed_checks"])
        if res["query"] is None:
            continue
        for op in res["ops"]:
            if op["rc"] != 0:
                failed += 1
                continue
            expected = inputs.expected_groups(res["query"])
            if op["groups"] != expected:
                problems.append(f"{op['name']}: got {op['groups']}, "
                                f"expected {expected}")
    return failed


def sweep(workload: str, ops: list) -> dict:
    """Times of the operations in the size sweep, by input size.

    spheres: the wedges (k = 3), sized by nondegenerate simplices; stacked:
    every query, sized the same way; postnikov_eval: every evaluation,
    sized by the number of nonzero values of the simplex's cocycle.
    """
    if workload == "spheres":
        ops = [op for op in ops if op["name"].startswith("pi_3(")]
    by_size = {}
    for op in ops:
        by_size.setdefault(op["size"], []).append(op["s"])
    return by_size


def end_to_end(workload: str, rounds: list) -> dict:
    ops = [op for rnd in rounds for res in rnd for op in res["ops"]]
    setup = [sum(res["setup_s"] for res in rnd) for rnd in rounds]
    by_size = sweep(workload, ops)
    sizes = sorted(by_size)
    slope = inputs.loglog_slope(
        sizes, [statistics.median(by_size[s]) for s in sizes])
    ms = [op["s"] * 1e3 for op in ops]
    values = {
        "wall_s": sum(round_seconds(rnd) for rnd in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(res["rss_kb"] for rnd in rounds for res in rnd) / 1024,
        "size_exponent": slope,
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _count_keys(res: dict) -> dict:
    out = {k: v for k, v in res["counts"].items()}
    out["smith.snf_entries"] = res["snf_entries"]
    out["smith.snf_max_side"] = res["snf_max_side"]
    out["postnikov.effective_rank"] = res["effective_rank"]
    return out


def nonrepeating_counts(traced_rounds: list) -> list:
    """Counters that differ between traced rounds, per worker."""
    diffs = []
    first = traced_rounds[0]
    for other, hs in traced_rounds[1:]:
        for a, b in zip(first[0], other):
            ca, cb = _count_keys(a), _count_keys(b)
            for key in sorted(set(ca) | set(cb)):
                if ca.get(key, 0) != cb.get(key, 0):
                    who = (a["query"] or {}).get("name", "k_2")
                    diffs.append(f"{who} {key}: {ca.get(key, 0)} under "
                                 f"PYTHONHASHSEED={first[1]}, "
                                 f"{cb.get(key, 0)} under PYTHONHASHSEED={hs}")
    return diffs


def top_stage_seconds(res: dict) -> float:
    """Time of a worker's last tower stage (5 for S^3, 4 for S^2, ...)."""
    prefix = "postnikov.stage"
    stages = {int(k[len(prefix):]): v for k, v in res["seconds"].items()
              if k.startswith(prefix)}
    return stages[max(stages)]


def per_layer(untraced: list, traced: list) -> dict:
    counts, seconds = {}, {}
    for res in traced:
        for k, v in _count_keys(res).items():
            if k != "smith.snf_max_side":
                counts[k] = counts.get(k, 0) + v
        for k, v in res["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
    counts["smith.snf_max_side"] = max(r["snf_max_side"] for r in traced)

    def ratio(name):
        calls = counts.get(name + "_calls", 0)
        return counts.get(name + "_hits", 0) / calls if calls else 0.0

    values = {
        "smith.snf_calls": (counts.get("smith.snf_calls", 0), "count"),
        "smith.snf_s": (seconds.get("smith.snf", 0.0), "s"),
        "smith.snf_entries": (counts["smith.snf_entries"], "count"),
        "smith.snf_max_side": (counts["smith.snf_max_side"], "count"),
        "chains.on_cell_calls": (counts.get("chains.on_cell_calls", 0), "count"),
        "chains.on_cell_hit_ratio": (ratio("chains.on_cell"), "ratio"),
        "chains.diff_cell_calls": (counts.get("chains.diff_cell_calls", 0), "count"),
        "chains.diff_cell_hit_ratio": (ratio("chains.diff_cell"), "ratio"),
        "chains.basis_calls": (counts.get("chains.basis_calls", 0), "count"),
        "chains.homology_s": (seconds.get("chains.homology", 0.0), "s"),
        "simplicial.face_calls": (counts.get("simplicial.face_calls", 0), "count"),
        "simplicial.canon_calls": (counts.get("simplicial.canon_calls", 0), "count"),
        "simplicial.smap_calls": (counts.get("simplicial.smap_calls", 0), "count"),
        "simplicial.smap_hit_ratio": (ratio("simplicial.smap"), "ratio"),
        "abgroup.reduce_calls": (counts.get("abgroup.reduce_calls", 0), "count"),
        "em.make_raw_calls": (counts.get("em.make_raw_calls", 0), "count"),
        "em.equivalence_s": (seconds.get("em.equivalence", 0.0), "s"),
        "reduction.reductions_built": (
            counts.get("reduction.reductions_built_calls", 0), "count"),
        "reduction.perturbation_calls": (
            counts.get("reduction.perturbation_calls", 0), "count"),
        "reduction.cone_equipment_s": (
            seconds.get("reduction.cone_equipment", 0.0), "s"),
        "ez.product_equivalence_s": (
            seconds.get("ez.product_equivalence", 0.0), "s"),
        "bar.pullback_fibration_s": (
            seconds.get("bar.pullback_fibration", 0.0), "s"),
        "bar.twisted_division_calls": (
            counts.get("bar.twisted_division_calls", 0), "count"),
    }
    for i in (2, 3):
        values[f"postnikov.stage{i}_s"] = (
            seconds.get(f"postnikov.stage{i}", 0.0), "s")
    values["postnikov.top_stage_s"] = (
        sum(top_stage_seconds(res) for res in traced), "s")
    values["postnikov.effective_rank"] = (counts["postnikov.effective_rank"],
                                          "count")
    values["cli.parse_s"] = (seconds.get("cli.parse", 0.0), "s")
    values["trace.overhead_s"] = (
        round_seconds(traced) - round_seconds(untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result object, trace document or None)."""
    problems, failed, attempted = [], 0, 0
    rounds = []
    traced_rounds = []
    if trace:
        # one untraced round for the overhead, then the traced rounds, all
        # on the inputs of round 0
        plan = [(False, "0")] + [(True, hs) for hs in TRACED_HASHSEEDS]
        for is_traced, hs in plan:
            rnd = run_round(units(workload, seed, 0), is_traced, hs)
            (traced_rounds.append((rnd, hs)) if is_traced
             else rounds.append(rnd))
    else:
        for rnd in range(rounds_per_run(workload, seconds)):
            rounds.append(run_round(units(workload, seed, rnd), False))
    for rnd in rounds + [r for r, _ in traced_rounds]:
        failed += check_round(rnd, problems)
        attempted += sum(len(res["ops"]) for res in rnd)
    for p in problems:
        print(f"CHECK FAILED [{workload}]: {p}", file=sys.stderr)
    document = None
    if trace:
        metrics = per_layer(rounds[0], traced_rounds[0][0])
        diffs = nonrepeating_counts(traced_rounds)
        for d in diffs:
            print(f"count does not repeat [{workload}]: {d}")
        if not diffs:
            print(f"[{workload}] every count repeated exactly across "
                  f"{len(traced_rounds)} traced rounds (PYTHONHASHSEED "
                  f"{', '.join(TRACED_HASHSEEDS)})")
        document = {"workload": workload, "seed": seed,
                    "nonrepeating_counts": diffs,
                    "rounds": [{"hashseed": hs, "workers": [
                        {"unit": (res["query"] or {}).get("name", "k_2"),
                         "counts": _count_keys(res),
                         "seconds": res["seconds"],
                         "spans": res["spans"]} for res in rnd]}
                        for rnd, hs in traced_rounds]}
    else:
        metrics = end_to_end(workload, rounds)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, document


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["spheres", "stacked", "postnikov_eval", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "effhom" / "cli.py").is_file():
        print(f"error: no effhom sources under {SRC}", file=sys.stderr)
        return 2
    import compileall
    # byte-compile once, so the first worker's set-up is not a compile
    for tree in (SRC, BENCH_DIR):
        compileall.compile_dir(str(tree), quiet=1)
    (OUT / "docs").mkdir(parents=True, exist_ok=True)

    names = (["spheres", "stacked", "postnikov_eval"]
             if args.workload == "all" else [args.workload])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, document = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace))
        except (BenchmarkError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
        if document is not None:
            (OUT / f"trace-{name}-seed{args.seed}.json").write_text(
                json.dumps(document))
        print(f"[{name}] attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
