"""Perf smoke: record the kernel and end-to-end performance trajectory.

Run as a script (``PYTHONPATH=src python benchmarks/perf_smoke.py``) to
measure

* event-kernel throughput (events/second) on a canonical mixed workload of
  future timeouts, zero-delay timeouts, and event triggers — the same traffic
  mix the simulator generates, and
* the wall-clock of one small uncached end-to-end FFT run (FLASH machine),

and append them to ``benchmarks/BENCH_kernel.json`` so future PRs have a
perf trajectory to compare against.  ``test_kernel_throughput.py`` imports
the same workload so the pytest microbenchmark and the smoke record agree.

With ``--e2e`` it additionally runs the full Figure 4.1 sweep (all 14
app/machine combinations at the large regime) cold — no memo, no disk
cache — and appends total wall clock plus aggregate references/second to
``benchmarks/BENCH_e2e.json``.  That is the headline end-to-end number the
optimization PRs are judged on; expect it to take about a minute.

After recording, ``benchmarks/history.py`` folds the latest measurements
into the per-commit ledger ``BENCH_history.jsonl`` and flags >10 %
throughput regressions against the previous entry (CI runs it as a soft
gate).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

BENCH_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_kernel.json")
BENCH_E2E_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "BENCH_e2e.json")

#: Canonical microbenchmark shape: every worker alternates a future timeout,
#: a zero-delay timeout, and an immediately-triggered event wait.
N_WORKERS = 200
N_STEPS = 500
EVENTS_PER_STEP = 3


def kernel_events_per_sec(repeats: int = 3) -> float:
    """Best-of-``repeats`` coroutine-dispatch throughput in events/second.

    Each step is three kernel events driven through generator resume: a
    future Timeout, a zero-delay Timeout, and a pre-triggered Event wait.
    This is the execution model the cold paths still use.
    """
    from repro.sim.engine import Environment

    best = 0.0
    for _ in range(repeats):
        env = Environment()

        def worker(i):
            for step in range(N_STEPS):
                yield env.timeout((i % 7) + 1)
                yield env.timeout(0)
                event = env.event()
                event.succeed(step)
                yield event

        for i in range(N_WORKERS):
            env.process(worker(i))
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        best = max(best, N_WORKERS * N_STEPS * EVENTS_PER_STEP / elapsed)
    return best


class _CallbackWorker:
    """State-machine twin of the coroutine worker: the same three kernel
    events per step (future delay, zero-delay hop, triggered-event wait),
    expressed as scheduled callbacks instead of generator resumes — the
    execution model of the simulator's hot paths, including the pooled
    event draw and inlined ``succeed`` the hot queues use."""

    __slots__ = ("env", "event_cls", "delay", "step")

    def __init__(self, env, event_cls, i):
        self.env = env
        self.event_cls = event_cls
        self.delay = (i % 7) + 1
        self.step = 0
        env.call_later(self.delay, self._after_delay)

    def _after_delay(self) -> None:
        self.env.call_later(0.0, self._after_zero)

    def _after_zero(self) -> None:
        env = self.env
        pool = env._event_pool
        event = pool.pop() if pool else self.event_cls(env)
        event._ok = True
        event._value = self.step  # succeed(step), inlined
        event.callbacks.append(self._after_event)
        env._ready.append(event)

    def _after_event(self, _event) -> None:
        self.step += 1
        if self.step < N_STEPS:
            self.env.call_later(self.delay, self._after_delay)


def kernel_callback_events_per_sec(repeats: int = 3) -> float:
    """Best-of-``repeats`` callback-dispatch throughput in events/second:
    the identical event mix as :func:`kernel_events_per_sec`, driven through
    bare scheduled callbacks (no generator frames to resume)."""
    from repro.sim.engine import Environment, Event

    best = 0.0
    for _ in range(repeats):
        env = Environment()
        workers = [_CallbackWorker(env, Event, i) for i in range(N_WORKERS)]
        start = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - start
        assert all(w.step == N_STEPS for w in workers)
        best = max(best, N_WORKERS * N_STEPS * EVENTS_PER_STEP / elapsed)
    return best


def end_to_end_seconds() -> float:
    """Wall-clock of one small FLASH run, bypassing every cache layer."""
    from repro.harness import experiments

    spec = experiments.normalize_spec(
        "fft", kind="flash", regime="large",
        workload_overrides={"points": 1024},
    )
    start = time.perf_counter()
    experiments._execute(spec)
    return time.perf_counter() - start


def fig41_sweep() -> dict:
    """Cold wall-clock of the full Figure 4.1 sweep, sequential, uncached.

    Runs every (app, kind) spec through ``experiments._execute`` directly so
    neither the in-process memo nor the disk cache can shortcut a run, and
    reports per-app seconds, the total, and aggregate simulated memory
    references per wall-clock second.
    """
    from repro.harness import experiments, runfarm

    per_app: dict = {}
    per_app_refs: dict = {}
    total_refs = 0
    total_seconds = 0.0
    for spec in runfarm.sweep_specs(regime="large"):
        start = time.perf_counter()
        machine, ops, _ = experiments.build_machine(spec)
        result = machine.run(ops)
        elapsed = time.perf_counter() - start
        key = f"{spec['app']}/{spec['kind']}"
        per_app[key] = round(elapsed, 2)
        per_app_refs[key] = round(result.references / elapsed)
        total_refs += result.references
        total_seconds += elapsed
        print(f"  {key:<14} {elapsed:6.2f}s", file=sys.stderr)
    return {
        "sweep_seconds": round(total_seconds, 2),
        "references": total_refs,
        "references_per_sec": round(total_refs / total_seconds),
        "per_app_seconds": per_app,
        "per_app_refs_per_sec": per_app_refs,
    }


def check_ops_per_sec() -> float:
    """Model-checker throughput: oracle-checked references per second on a
    fixed small ``randmem`` run (seed 0, 600 ops/cpu, 4 nodes).  Gates the
    oracle's observation overhead — hook regressions in the CPU loop twin
    or the handler stamping show up here before they hurt deep sweeps."""
    from repro.check import CheckSpec, run_check

    spec = CheckSpec(seed=0, ops=600, nodes=4, lines=8)
    start = time.perf_counter()
    report = run_check(spec)
    elapsed = time.perf_counter() - start
    assert report.ok, f"checker found a violation during benchmarking: " \
                      f"{report.error_type}"
    return report.checked_ops / elapsed


def loadlat_reqs_per_sec() -> float:
    """Observability-layer throughput: completed open-loop requests per
    wall-clock second on a fixed monitored+traced ``openloop`` run (seed 0,
    128 requests/node, 8 nodes).  This path carries every observer at once —
    the 'q'/'e' request markers, the latency monitor's sketch feeds, and the
    tracer's per-transaction component forwarding — so a hook that gets
    expensive shows up here before it hurts real loadlat sweeps."""
    from repro.harness import experiments

    spec = experiments.normalize_spec(
        "openloop", kind="flash", regime="large", n_procs=8,
        workload_overrides={"requests": 128, "lines": 32, "mean_gap": 150.0},
        loadlat=True, trace=True,
    )
    start = time.perf_counter()
    result = experiments._execute(spec)
    elapsed = time.perf_counter() - start
    completed = result.load_latency["requests"]["completed"]
    assert completed == 128 * 8, f"openloop bench left requests open: " \
                                 f"{result.load_latency['requests']}"
    return completed / elapsed


def critpath_spans_per_sec() -> float:
    """Critical-path extraction throughput: recorded wait segments plus
    retired transactions processed per second of extraction wall clock, on
    a fixed traced fft run.  Extraction runs once per traced run at end of
    run, so a hook or walk that gets expensive shows up here before it
    slows every ``trace``/``whatif`` invocation."""
    from repro.harness import experiments
    from repro.stats.critpath import extract_critical_path

    spec = experiments.normalize_spec(
        "fft", kind="flash", regime="large",
        workload_overrides={"points": 1024}, trace=True,
    )
    machine, ops, _ = experiments.build_machine(spec)
    result = machine.run(ops)
    tracer = machine.tracer
    work = (sum(len(segs) for segs in tracer.cpu_segments.values())
            + sum(len(recs) for recs in tracer.retired.values()))
    finish = [node.cpu.times.finish_time for node in machine.nodes]
    start = time.perf_counter()
    repeats = 5
    for _ in range(repeats):
        critpath = extract_critical_path(tracer, result.execution_time,
                                         finish)
    elapsed = (time.perf_counter() - start) / repeats
    assert critpath["length"] == result.execution_time, \
        "critical path failed to reconcile during benchmarking"
    return work / elapsed


def append_history(path: str, record: dict) -> int:
    history = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                history = json.load(fh)
        except ValueError:
            history = []
    history.append(record)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    return len(history)


def git_sha() -> str:
    """Current commit SHA, or "unknown" outside a work tree — every bench
    record is attributable to the exact tree it measured."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> dict:
    return {
        "sha": git_sha(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main() -> int:
    if "--e2e" in sys.argv[1:]:
        record = machine_stamp()
        record.update(fig41_sweep())
        count = append_history(BENCH_E2E_FILE, record)
        print(json.dumps(record, indent=2))
        print(f"appended to {BENCH_E2E_FILE} ({count} record(s))")
        return 0
    record = machine_stamp()
    coroutine_rate = round(kernel_events_per_sec())
    callback_rate = round(kernel_callback_events_per_sec())
    record["kernel_events_per_sec"] = coroutine_rate
    # Dispatch-mode breakdown: the same event mix through both execution
    # models, so the hot-path payoff of the callback core stays visible.
    record["dispatch_modes"] = {
        "coroutine_events_per_sec": coroutine_rate,
        "callback_events_per_sec": callback_rate,
        "callback_speedup": round(callback_rate / coroutine_rate, 2),
    }
    record["e2e_fft1k_seconds"] = round(end_to_end_seconds(), 3)
    record["check_ops_per_sec"] = round(check_ops_per_sec())
    record["loadlat_reqs_per_sec"] = round(loadlat_reqs_per_sec())
    record["critpath_spans_per_sec"] = round(critpath_spans_per_sec())
    count = append_history(BENCH_FILE, record)
    print(json.dumps(record, indent=2))
    print(f"appended to {BENCH_FILE} ({count} record(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
