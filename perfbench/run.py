"""The repository benchmark: four evicting workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload sim-fig5 --seed 42 --seconds 20
    python3 perfbench/run.py --workload all               # every workload
    python3 perfbench/run.py --workload serve-hot --trace 1

``--trace 0`` measures one workload end to end with tracing off and
prints every end-to-end metric of ``BENCHMARK.json``.  ``--trace 1``
prints the per-layer ledger (:mod:`ledger`), which covers every
workload, so it is the same whichever ``--workload`` is named.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).

Times are seconds at the reference speed of :mod:`calibrate`: each
short unit of work is timed between two runs of a fixed kernel and
keeps its fastest pass, so a shared machine's changing load mostly
cancels out while a change to the program does not.

Outputs are checked in the same run: conservation invariants, zero
failed cells, the eviction guard (each workload must keep evicting and
stay inside its hit-ratio band) and, for seeds with a committed digest
in ``digests.json``, the deterministic outputs themselves.  A failed
check prints ``"correct": false`` with no metrics and exits 1.

Every measurement is also written as ``repro.obs`` snapshot rows to
``perfbench/out/<run>/metrics.jsonl`` and a journal in the same
directory, so ``repro metrics`` and ``repro diff`` read them::

    repro metrics perfbench/out/sim-fig5-seed42/metrics.jsonl
    repro diff perfbench/out/sim-fig5-seed42 perfbench/out/<other run>
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: The seed of record, and the one kept back for confirming later claims.
DEFAULT_SEED = 42
HELDOUT_SEED = 20231

#: End-to-end metrics, reported by every workload: name -> unit.  An
#: "op" is one get on the serving workloads and one simulated request
#: on the simulators, timed per cell; the tail is p99 over gets and p90
#: over cells (the highest percentile with ten samples beyond it).
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "miss_ratio": "ratio",
    "served_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the program and the benchmark modules, or exit 2."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import ledger
    import workloads
    return workloads, ledger


def check_declared_metrics(workloads, ledger) -> None:
    """BENCHMARK.json must name exactly what this benchmark reports."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"])
              for m in declared["per_layer"]}
    ours = {m.name: (m.unit, m.better) for m in ledger.LAYER_METRICS}
    if (names != list(workloads.WORKLOADS) or e2e != E2E_UNITS
            or layers != ours):
        print("error: BENCHMARK.json and perfbench disagree on workloads "
              "or metrics", file=sys.stderr)
        sys.exit(2)


def obs_rows(entries):
    """Snapshot rows for (workload, kind, metric, value, unit) entries."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for workload, kind, metric, value, unit in entries:
        name = "bench_" + re.sub(r"[^0-9A-Za-z_]", "_", metric)
        registry.gauge(name, f"{metric} ({unit})", workload=workload,
                       kind=kind, metric=metric, unit=unit).set(value)
    return registry.snapshot()


def run_dir(run: str) -> Path:
    """An empty ``perfbench/out/<run>`` (a journal would append)."""
    directory = OUT / run
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def write_obs(directory: Path, rows, results, meta) -> None:
    """``metrics.jsonl`` plus a journal readable by ``repro diff``."""
    from repro.exec.journal import Journal
    from repro.obs.export import write_jsonl

    with Journal.create(run_id=directory.name, root=OUT,
                        meta=meta) as journal:
        for key, payload in results:
            journal.record_result(key, payload)
        journal.record_metrics(rows)
    write_jsonl(rows, directory / "metrics.jsonl")
    print(f"obs rows: {directory / 'metrics.jsonl'}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units.get(name, '')}")


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


def measure(workloads, name: str, seed: int, seconds: float,
            record_digest: bool):
    """One workload end to end; returns (metrics, attempted, failed)."""
    workload = workloads.WORKLOADS[name]
    print(f"workload {name}, seed {seed}: {workload.why}")
    state, setup_s = workloads.timed_setups(workload.setup, seed)
    measured = workload.run(state, seconds)
    metrics = {"setup_s": setup_s, **measured.metrics,
               "peak_rss_mb": workloads.peak_rss_mb()}

    digest = workloads.digest(measured.outputs)
    digests = load_digests()
    committed = digests.get(name, {}).get(str(seed))
    checks = list(measured.checks)
    if record_digest:
        digests.setdefault(name, {})[str(seed)] = digest
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
        checks.append(f"digest {digest} recorded for seed {seed}")
    elif committed is None:
        checks.append(f"digest {digest}: none committed for seed {seed}")
    else:
        workloads.check(committed == digest,
                        f"{name}: outputs digest {digest} differs from the "
                        f"committed {committed} for seed {seed}")
        checks.append(f"digest {digest} matches the committed one")

    print_table("end to end:", metrics, E2E_UNITS)
    print_table("guard and detail:", measured.extras, {})
    print("checks:")
    for line in checks:
        print(f"  ok  {line}")
    entries = [(name, "end_to_end", m, v, E2E_UNITS[m])
               for m, v in metrics.items()]
    entries += [(name, "detail", m, v, "") for m, v in
                measured.extras.items()]
    write_obs(run_dir(f"{name}-seed{seed}"), obs_rows(entries),
              measured.results,
              {"workload": name, "seed": seed, "digest": digest})
    return metrics, measured.attempted, measured.failed


def trace_ledger(workloads, ledger, seed: int):
    """Every workload's per-layer metrics; returns (metrics, attempted)."""
    directory = run_dir(f"ledger-seed{seed}")
    metrics = {}
    for name, run_ledger in ledger.LEDGERS.items():
        setup = workloads.WORKLOADS[name].setup
        if name == "sim-fig5":
            state, metrics["traces.build_s"] = workloads.timed_setups(
                setup, seed)
        else:
            state = setup(seed)
        started = time.perf_counter()
        metrics.update(run_ledger(state, directory))
        print(f"ledger {name}: {time.perf_counter() - started:.1f} s")
    units = {m.name: m.unit for m in ledger.LAYER_METRICS}
    missing = set(units) - set(metrics)
    workloads.check(not missing, f"ledger lacks {sorted(missing)}")
    ordered = {m.name: metrics[m.name] for m in ledger.LAYER_METRICS}
    print_table("per layer:", ordered, units)
    by_name = {m.name: m for m in ledger.LAYER_METRICS}
    entries = [(by_name[m].workload, "per_layer", m, v, units[m])
               for m, v in ordered.items()]
    write_obs(directory, obs_rows(entries), (),
              {"ledger": True, "seed": seed})
    return ordered, len(ledger.LEDGERS)


def main(argv=None) -> int:
    workloads, ledger = load_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this seed's output digest in "
                             "digests.json instead of checking it")
    args = parser.parse_args(argv)
    check_declared_metrics(workloads, ledger)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        if args.trace:
            metrics, attempted = trace_ledger(workloads, ledger, args.seed)
            units = {m.name: m.unit for m in ledger.LAYER_METRICS}
            print(result_line(True, attempted, 0, metrics, units))
            return 0
        summary, units, attempted, failed = {}, {}, 0, 0
        for name in names:
            metrics, tried, lost = measure(workloads, name, args.seed,
                                           args.seconds, args.record_digest)
            attempted += tried
            failed += lost
            if len(names) == 1:
                summary, units = metrics, E2E_UNITS
            else:
                print(result_line(True, tried, lost, metrics, E2E_UNITS))
                for metric, value in metrics.items():
                    summary[f"{name}.{metric}"] = value
                    units[f"{name}.{metric}"] = E2E_UNITS[metric]
        print(result_line(True, attempted, failed, summary, units))
        return 0
    except workloads.CheckFailed as failure:
        print(f"check failed: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
