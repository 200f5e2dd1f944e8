"""fedtee benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 30 --trace 0

The benchmark drives the public API (``RunConfig``, ``harness.TaskRun``) from
the outside, single-threaded, in this one process. ``--seed`` becomes
``RunConfig.seed``; the same seed gives the same task.

``--trace 0`` repeats whole tasks for about ``--seconds`` seconds and reports
the end-to-end metrics. ``--trace 1`` runs four tasks, two of them traced,
and reports the per-layer split (see ``layers.py``). The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries diagnostics. NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The machine switches between fast and slow spells lasting seconds, so a
# short sample measures the spell rather than the program. Every time sample
# therefore averages over a block of work, and blocks are spread over the run:
# before, between and after the tasks. A set-up sample is the mean of a block
# of at least SETUP_BLOCK_S; set-up blocks take about SETUP_SHARE of the task
# time. A round sample is the mean round of one task or one round pass; round
# passes keep round time at ROUND_SHARE of the task time. A verify sample is
# the mean of one task's verify() calls, repeated up to VERIFY_SHARE of it.
SETUP_SHARE = 0.2
SETUP_BLOCK_S = 1.0
ROUND_SHARE = 0.8
VERIFY_SHARE = 0.3
REF_REPS = 7


def workload_config(name: str, seed: int):
    """The RunConfig of one workload. NOTES.md says why each has its shape."""
    from fedtee.config import FaultEvent, RunConfig

    common = dict(taskid=f"bench-{name}", seed=seed, strategy="clientmax")
    if name == "fleet":
        return RunConfig(
            n_clients=120, n_nodes=6, rounds=40, participation=0.25,
            layers={0: 512, 1: 512}, epc_budget=85_000, sentinel=True, taps=True,
            faults=[FaultEvent(kind="kill_node", node=1, round=20, phase="collect")],
            **common,
        )
    if name == "chunked":
        return RunConfig(
            model_preset="alexnet", n_clients=4, rounds=8, participation=1.0,
            tx_capacity=4096, int_mode=True, **common,
        )
    if name == "bulk":
        return RunConfig(
            model_preset="resnet18", n_clients=4, rounds=4, participation=1.0, **common
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fleet", "chunked", "bulk")


def reference_loop() -> float:
    """Median time of a fixed pure-Python loop: a machine-drift diagnostic.

    It is printed beside the metrics and never used to rescale them.
    """
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def outputs_match(cfg, report, oracle) -> bool:
    """Every round's on-chain model against the oracle's, to the model spec:
    bit-exact in int mode, else 1e-9 relative (1e-12 absolute near zero)."""
    got = report.round_models
    if oracle is None or len(got) != cfg.rounds or len(oracle) != cfg.rounds:
        return False
    if cfg.int_mode:
        return all(g.bit_equal(w) for g, w in zip(got, oracle))
    return all(g.allclose(w, rel=1e-9, abs_tol=1e-12) for g, w in zip(got, oracle))


def run_one(cfg, tracer, verify_share: float = 0.0) -> dict:
    """One whole task, timed as the user waits for it.

    Afterwards ``verify()`` is repeated on the finished task until verifying
    took about ``verify_share`` of the task time; each call does the same work.
    """
    from fedtee.harness import TaskRun

    tracer.reset()
    record = {"failed_checks": []}
    close = tracer.root()
    try:
        run = TaskRun(cfg)
        report = run.run()
    except Exception as exc:  # a raising task is a failed operation, not a crash
        close()
        record["failed_checks"].append(f"raised {type(exc).__name__}")
        record["outputs_ok"] = False
        return record
    record.update(
        task_s=close(),
        round_s=tracer.durations("harness.run_round"),
        digest=report.digest(),
        wire_bytes=sum(report.traffic_bytes_by_kind.values()),
        outputs_ok=outputs_match(cfg, report, tracer.kept.get("harness.oracle_run")),
    )
    if not report.ok:
        bad = [name for name, outcome in report.verification.items() if outcome != "pass"]
        record["failed_checks"].extend(bad or ["run incomplete"])
    verifies = tracer.durations("harness.verify")
    while verifies and sum(verifies) + 0.5 * verifies[-1] < verify_share * record["task_s"]:
        run.verify()
        verifies = tracer.durations("harness.verify")
    record["verify_s"] = verifies
    if tracer.errors:
        raise RuntimeError(f"benchmark counters failed: {tracer.errors}")
    return record


def setup_only(cfg) -> float:
    from fedtee.harness import TaskRun

    t0 = time.perf_counter()
    TaskRun(cfg).setup()
    elapsed = time.perf_counter() - t0
    gc.collect()
    return elapsed


def round_pass(cfg, tracer) -> tuple[float, list[float]]:
    """Set up a fresh task and run all its rounds, as ``TaskRun.run`` does,
    without the verification; returns the set-up time and each round's."""
    from fedtee.harness import RunFailed, TaskRun

    tracer.reset()
    t0 = time.perf_counter()
    run = TaskRun(cfg)
    built = time.perf_counter()
    run.setup()
    try:
        for r in range(cfg.rounds):
            run.run_round(r)
    except RunFailed:
        pass  # the full tasks report it; the rounds that ran are still samples
    setup_s = built - t0 + sum(tracer.durations("harness.setup"))
    rounds = tracer.durations("harness.run_round")
    tracer.reset()
    del run
    gc.collect()
    return setup_s, rounds


def end_to_end(cfg, seconds: float) -> tuple[dict, dict, list[dict]]:
    """Whole tasks, with set-up and round samples between them, for about
    ``seconds`` in all; each metric is a median over its samples."""
    import layers

    tracer = layers.Tracer()
    layers.install_phases(tracer)
    tasks: list[dict] = []
    blocks: list[list[float]] = []  # set-up samples, one list per gap between tasks
    round_means: list[float] = []  # one per task or round pass
    spent = {"task": 0.0, "round": 0.0, "setup": 0.0}

    def top_up() -> None:
        # Round passes keep round time at ROUND_SHARE of task time; they add
        # samples only where rounds are a small part of a task.
        block: list[float] = []
        while round_means and (
            ROUND_SHARE * spent["task"] - spent["round"] >= round_means[-1] * cfg.rounds
        ):
            setup_s, rounds = round_pass(cfg, tracer)
            block.append(setup_s)
            round_means.append(statistics.mean(rounds))
            spent["round"] += sum(rounds)
        owed = SETUP_SHARE * spent["task"] - spent["setup"]
        while not block or sum(block) < max(owed, SETUP_BLOCK_S):
            block.append(setup_only(cfg))
        spent["setup"] += sum(block)
        blocks.append(block)

    start = time.perf_counter()
    top_up()
    cycles = []
    while True:
        t0 = time.perf_counter()
        task = run_one(cfg, tracer, VERIFY_SHARE)
        tracer.reset()
        gc.collect()
        tasks.append(task)
        if "task_s" not in task:
            break
        spent["task"] += task["task_s"]
        spent["round"] += sum(task["round_s"])
        round_means.append(statistics.mean(task["round_s"]))
        top_up()
        cycles.append(time.perf_counter() - t0)
        # Start another cycle only if it should end within half a cycle of the budget.
        if time.perf_counter() - start + 0.5 * statistics.median(cycles) >= seconds:
            break
    tracer.restore()
    done = [t for t in tasks if "task_s" in t]
    if not done:
        raise RuntimeError(f"no task completed: {[t['failed_checks'] for t in tasks]}")
    setup_means = [statistics.mean(b) for b in blocks]
    verify_means = [statistics.mean(t["verify_s"]) for t in done if t["verify_s"]]
    if not verify_means:
        raise RuntimeError("no task reached verify()")
    metrics = {
        "task_s": (statistics.median(t["task_s"] for t in done), "s"),
        "setup_s": (statistics.median(setup_means), "s"),
        "round_s": (statistics.median(round_means), "s"),
        "verify_s": (statistics.median(verify_means), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "wire_bytes_per_round": (done[0]["wire_bytes"] / cfg.rounds, "B"),
    }
    diag = {
        "tasks": len(tasks),
        "task_s_samples": [t["task_s"] for t in done],
        "round_s_samples": round_means,
        "rounds_per_round_sample": cfg.rounds,
        "verify_s_samples": verify_means,
        "verifies_per_verify_sample": [len(t["verify_s"]) for t in done],
        "setup_s_samples": setup_means,
        "setups_per_setup_sample": [len(b) for b in blocks],
        "same_seed_tasks_identical": len({(t["digest"], t["wire_bytes"]) for t in done}) == 1,
    }
    return metrics, diag, tasks


def per_layer(cfg) -> tuple[dict, dict, list[dict]]:
    """The per-layer split of two traced tasks.

    A warm-up task comes first, since the first task in a process pays for
    growing the heap. An untraced task between the two traced ones gives the
    tracing overhead against tasks in the same state.
    """
    import layers

    tasks, splits, counts = [], [], []
    for traced in (False, True, False, True):
        tracer = layers.Tracer()
        layers.install_phases(tracer)
        if traced:
            layers.install_layers(tracer)
        try:
            record = run_one(cfg, tracer)
            if traced and "task_s" in record:
                splits.append(tracer.self_times())
                counts.append({name: tracer.counts[name] for name in layers.EXACT})
        finally:
            tracer.restore()
        tasks.append(record)
        del tracer
        gc.collect()
    if any("task_s" not in t for t in tasks):
        raise RuntimeError(f"a task raised: {[t['failed_checks'] for t in tasks]}")
    warm_up, traced_tasks, plain = tasks[0], tasks[1::2], tasks[2]

    unknown = set().union(*splits) - set(layers.SELF_TIME)
    sums_ok = all(
        abs(sum(split.values()) - t["task_s"]) <= 1e-6 * t["task_s"]
        for split, t in zip(splits, traced_tasks)
    )
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(t["task_s"] for t in traced_tasks) - plain["task_s"]
        elif unit == "s":
            value = statistics.median(split.get(name, 0.0) for split in splits)
        else:
            value = counts[0][name]
        metrics[name] = (value, unit)
    diag = {
        "digest_traced_equals_untraced": len({t["digest"] for t in tasks}) == 1,
        "exact_counts_repeat": counts[0] == counts[1],
        "self_times_sum_to_wall": sums_ok and not unknown,
        "task_s_warm_up_traced_untraced_traced": [t["task_s"] for t in tasks],
    }
    return metrics, diag, tasks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "fedtee" / "__init__.py").is_file():
        print(f"fedtee sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(REPO / "src"))

    cfg = workload_config(args.workload, args.seed)
    ref_before = reference_loop()
    if args.trace:
        metrics, diag, tasks = per_layer(cfg)
        checks = ("digest_traced_equals_untraced", "exact_counts_repeat", "self_times_sum_to_wall")
    else:
        metrics, diag, tasks = end_to_end(cfg, args.seconds)
        checks = ("same_seed_tasks_identical",)
    failed = [t for t in tasks if t["failed_checks"]]
    diag.update(
        workload=args.workload,
        seed=args.seed,
        ref_loop_s=[ref_before, reference_loop()],
        failed_checks=dict(Counter(c for t in failed for c in t["failed_checks"])),
    )
    correct = all(t["outputs_ok"] for t in tasks) and all(diag[c] for c in checks)
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(tasks),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
