"""Benchmark of the FLASH / ideal-machine simulator.

Run from the repository root::

    python3 perfbench/run.py --workload mp3d-large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20   # all four
    python3 perfbench/run.py --workload ocean-large --seed 0 --trace 1

Each workload runs in one single-threaded process.  It repeats one
repetition of the workload (see ``workloads.py``) until ``--seconds`` have
passed, at least three times, and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics, with every probe off.  Host
times are in seconds of a reference-speed host: they are scaled by a
host-speed kernel timed just before and after every simulation, because
the speed of a shared host drifts by more than any bound worth setting
(see ``hostspeed.py``; the unscaled figures are printed too).

* ``refs_per_s`` -- simulated references retired per second of
  simulation (check-16: oracle-checked references); each simulation's
  median time over the repetitions;
* ``setup_s`` -- a fresh import of the simulator plus config, cost tables,
  ``Machine`` construction and workload build up to the first simulated
  event, summed over the repetition's machines; median over repetitions;
* ``peak_rss_mb`` -- peak resident memory of the process.

What should move them: ``protocol``/``magic``/``network`` self time and
``sim.dispatch_per_msg`` move ``refs_per_s`` on mp3d-large, not on
ocean-large; ``processor``/``caches``/``apps`` self time and CPU-owned
dispatches move it on ocean-large; ``memory`` and ``magic.mdc`` self time
on radix-small; ``ideal`` self time only the ideal half of the two pairs;
``stats``/``check`` self time move ``refs_per_s`` and ``peak_rss_mb`` on
check-16 only, as the observers are off elsewhere; handler and table
construction and imports move ``setup_s`` everywhere.  The modelled
counters move only ``model.slowdown_gap_pp``.

``--trace 1`` gives the per-layer metrics from three kinds of pass, cycled
until ``--seconds`` have passed, at least twice: a plain pass (untraced wall time and the
modelled counters), a sampled pass (``L.share`` from ``probes.Sampler``)
and a span pass (``L.calls_per_ref``, ``L.self_us_per_ref`` and the
``sim.dispatch*`` work ledger).  Spans are written to ``.perfbench_out/``
when the run ends.  The ``L.share`` values and ``rest.share`` sum to 1;
each is within ``sampler.max_stderr``.  ``model.slowdown_gap_pp`` is the
distance from Figure 4.1's slowdown, read from
``repro.harness.tables.PAPER_FIG_4_1_SLOWDOWN``, on the two pairs; it is -1
on radix-small and check-16, where the repo holds no paper value and the
model is unvalidated.

A simulation fails on an exception, a stall, a quiesce-invariant or oracle
violation, retired references that differ from the generated count, or a
result digest that differs from another repetition (or pass) of the same
seed.  Failures are counted in ``failed`` (``failed / attempted`` is the
failed fraction), never skipped or retried.  ``correct`` is false when a
failure is one the simulator's own checkers did not report (a wrong
reference count, a digest that does not repeat, an unexpected exception).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from probes import (  # noqa: E402
    LAYERS, REST, DispatchLedger, Sampler, SpanRecorder,
)
from workloads import (  # noqa: E402
    DETECTED, WORKLOADS, Repro, RunTap, clock, modelled_counters,
    purge_repro, slowdown_gap_pp,
)

MIN_REPS = 3
#: Traced runs cycle plain, sampled and span passes at least this often, so
#: the work ledger is always compared between two span passes.
MIN_CYCLES = 2
OUT_DIR = ROOT / ".perfbench_out"

#: Public entry points wrapped in spans on the span pass, per layer.
#: ``sim`` is wrapped by the dispatch ledger; ``apps`` through the op
#: streams' ``__next__``.
ENTRY_POINTS = (
    ("processor", "processor.cpu", "CPU",
     ("deliver", "external_invalidate", "external_downgrade")),
    ("processor", "processor.sync", "SyncDomain",
     ("barrier", "acquire", "release")),
    ("caches", "caches.setassoc", "SetAssocCache", ("fill", "invalidate")),
    ("caches", "caches.mshr", "MSHRFile", ("allocate", "complete")),
    ("magic", "magic.chip", "MagicChip",
     ("pi_submit", "pi_submit_cb", "pi_submit_drop")),
    ("magic", "magic.costmodel", "TableCostModel", ("cost",)),
    ("magic", "magic.mdc", "MagicDataCache", ("access",)),
    ("ideal", "ideal.controller", "IdealController",
     ("pi_submit", "pi_submit_cb", "pi_submit_drop")),
    ("protocol", "protocol.coherence", "NodeProtocolEngine",
     ("process", "replay_stable")),
    ("protocol", "protocol.directory", "Directory",
     ("add_sharer", "remove_sharer", "clear_sharers", "set_dirty",
      "clear_dirty")),
    ("network", "network.mesh", "NetworkPort",
     ("send", "send_cb", "send_drop")),
    ("memory", "memory.controller", "MemoryController",
     ("submit", "submit_cb", "submit_drop")),
    ("stats", "stats.trace", "Tracer",
     ("txn_issue", "txn_retire", "classify", "cpu_wait", "barrier_arrive",
      "lock_release", "inbox_span", "pp_enqueue", "pp_dequeue", "pp_span",
      "pi_out_span", "deferred", "memory_span", "net_span", "sample")),
    ("check", "check.oracle", "CoherenceOracle",
     ("on_read", "on_write_hit", "on_write_queued", "on_fill",
      "on_invalidate", "on_evict", "on_quiesce", "on_actions")),
)


def one_rep(workload, seed: int, generated, probe=None, host=None,
            keep_results=False):
    """One repetition on a fresh import of the simulator.  ``probe(repro,
    tap)`` attaches probes after the import and before any machine is
    built; ``host`` times the host-speed kernel around each simulation.
    Returns (import seconds, outcomes).  Unless ``keep_results``, the
    outcomes drop their ``RunResult``s once digested: a kept result holds
    its import's classes, so memory would grow with the repetitions."""
    purge_repro()
    gc.collect()
    start = clock()
    repro = Repro()
    import_s = clock() - start
    tap = RunTap(host)
    if probe is not None:
        probe(repro, tap)
    tap.install(repro.Machine)
    outcomes = workload.run_rep(repro, seed, tap, generated)
    tap.records.clear()     # the machines
    if not keep_results:
        for o in outcomes:
            o.result = None
    return import_s, outcomes


def mark_repeats(passes) -> None:
    """Fail every simulation whose digest differs from the first
    repetition's for the same label and seed."""
    first = {o.label: o.digest for o in passes[0]}
    for outcomes in passes[1:]:
        for o in outcomes:
            if o.digest != first.get(o.label) and o.failure is None:
                o.failure = "nondeterministic"
                o.detail = "result digest differs between repeats of one seed"


def tally(passes):
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.failure is not None]
    correct = all(o.failure in DETECTED for o in failed)
    return correct, len(outcomes), len(failed)


def report_outcomes(passes) -> None:
    for o in passes[0]:
        print(f"digest {o.label} sha256={o.digest}")
    for index, outcomes in enumerate(passes):
        for o in outcomes:
            if o.failure is not None:
                print(f"FAILED rep {index} {o.label} [{o.failure}] "
                      f"{o.detail.splitlines()[0] if o.detail else ''}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float) -> dict:
    generated = {}
    host = HostSpeed()
    reps = []       # (import seconds, outcomes)
    deadline = clock() + seconds
    while len(reps) < MIN_REPS or clock() < deadline:
        import_s, outcomes = one_rep(workload, seed, generated, host=host)
        reps.append((import_s, outcomes))
        print(f"rep {len(reps) - 1}: import {import_s:.3f}s setup "
              f"{import_s + sum(o.setup_s for o in outcomes):.3f}s "
              f"sim {sum(o.sim_s for o in outcomes):.3f}s "
              f"refs {sum(o.refs for o in outcomes)}", flush=True)
    passes = [outcomes for _, outcomes in reps]
    mark_repeats(passes)
    report_outcomes(passes)
    correct, attempted, failed = tally(passes)
    # Each simulation of the repetition is timed on its own and the median
    # of each over the repetitions is taken, which keeps a transient stall
    # of the host out of the figure; the run's host-speed scale then turns
    # the times into seconds of the reference host (hostspeed.py).
    refs = sim_s = 0
    for i in range(len(passes[0])):
        refs += statistics.median(p[i].refs for p in passes)
        sim_s += statistics.median(p[i].sim_s for p in passes)
    setup_s = statistics.median(import_s + sum(o.setup_s for o in p)
                                for import_s, p in reps)
    scale = host.scale()
    print(f"unscaled: refs_per_s {refs / sim_s:.1f}, setup_s {setup_s:.4f}; "
          f"host-speed scale {scale:.3f} from {len(host.samples)} samples")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            "refs_per_s": metric(refs / (sim_s * scale), "1/s"),
            "setup_s": metric(setup_s * scale, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def install_spans(repro, spans: SpanRecorder) -> None:
    for layer, module, cls, names in ENTRY_POINTS:
        spans.wrap_methods(getattr(repro.module(module), cls), names, layer)


def run_traced(workload, seed: int, seconds: float, name: str) -> dict:
    generated = {}
    sampler = Sampler()
    passes = []     # (mode, outcomes, spans, ledger)
    deadline = clock() + seconds
    while len(passes) < 3 * MIN_CYCLES or clock() < deadline:
        for mode in ("plain", "sampled", "spans"):
            spans = ledger = probe = None
            if mode == "sampled":
                def probe(repro, tap):
                    tap.sampler = sampler
            elif mode == "spans":
                spans, ledger = SpanRecorder(), DispatchLedger()

                def probe(repro, tap, spans=spans, ledger=ledger):
                    install_spans(repro, spans)
                    ledger.install(repro.Environment, spans)
                    tap.wrap_stream = spans.wrap_stream
            _, outcomes = one_rep(workload, seed, generated, probe,
                                  keep_results=mode == "plain")
            passes.append((mode, outcomes, spans, ledger))
            print(f"{mode} pass: sim "
                  f"{sum(o.sim_s for o in outcomes):.3f}s", flush=True)
    all_outcomes = [outcomes for _, outcomes, _, _ in passes]
    mark_repeats(all_outcomes)
    report_outcomes(all_outcomes)
    correct, attempted, failed = tally(all_outcomes)

    def sim_seconds(mode):
        return statistics.median(sum(o.sim_s for o in outcomes)
                                 for m, outcomes, _, _ in passes if m == mode)

    plain = next(outcomes for m, outcomes, _, _ in passes if m == "plain")
    _, span_outcomes, spans, ledger = next(p for p in passes
                                           if p[0] == "spans")
    ledgers = [p[3].counts for p in passes if p[0] == "spans"]
    if any(counts != ledgers[0] for counts in ledgers):
        correct = False
        print("FAILED work ledger differs between span passes of one seed")
    refs = max(sum(o.refs for o in span_outcomes), 1)
    messages = max(sum(o.messages for o in span_outcomes), 1)

    metrics = {}
    shares = sampler.shares()
    per_layer = spans.per_layer()
    for layer in LAYERS:
        calls, self_s = per_layer[layer]
        metrics[f"{layer}.share"] = metric(shares[layer], "frac")
        metrics[f"{layer}.calls_per_ref"] = metric(calls / refs, "1/ref")
        metrics[f"{layer}.self_us_per_ref"] = metric(self_s * 1e6 / refs,
                                                      "us/ref")
    metrics[f"{REST}.share"] = metric(shares[REST], "frac")
    metrics["sampler.samples"] = metric(sampler.samples, "count")
    metrics["sampler.max_stderr"] = metric(sampler.max_stderr(), "frac")
    metrics["sim.dispatch_per_ref"] = metric(ledger.total / refs, "1/ref")
    metrics["sim.dispatch_per_msg"] = metric(ledger.total / messages, "1/msg")
    for owner in LAYERS + (REST,):
        metrics[f"sim.dispatch.{owner}_per_ref"] = metric(
            ledger.counts.get(owner, 0) / refs, "1/ref")
    units = {"caches.miss_rate": "frac",
             "protocol.handlers_per_miss": "1/miss",
             "network.msgs_per_ref": "1/ref"}
    results = [o.result for o in plain if o.result is not None]
    for key, value in modelled_counters(results).items():
        metrics[key] = metric(value, units.get(key, "frac"))
    metrics["model.slowdown_gap_pp"] = metric(
        slowdown_gap_pp(workload, Repro(), plain), "pp")
    metrics["trace.overhead_frac"] = metric(
        sim_seconds("spans") / sim_seconds("plain") - 1.0, "frac")

    print_layer_table(metrics, sampler)
    stem = f"{name}-seed{seed}"
    spans.write(OUT_DIR, stem)
    with open(OUT_DIR / f"{stem}.ledger.json", "w") as out:
        json.dump({"counts": ledger.counts, "refs": refs,
                   "messages": messages}, out, indent=1, sort_keys=True)
    print(f"spans: {spans.stored} kept, {spans.dropped} past the cap; "
          f"written to {OUT_DIR.name}/{stem}.*")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_layer_table(metrics, sampler) -> None:
    def value(key):
        return metrics[key]["value"]

    print(f"{'layer':<10} {'share':>7} {'calls/ref':>10} "
          f"{'self us/ref':>12} {'dispatch/ref':>13}")
    for layer in LAYERS:
        print(f"{layer:<10} {value(layer + '.share'):>7.1%} "
              f"{value(layer + '.calls_per_ref'):>10.3f} "
              f"{value(layer + '.self_us_per_ref'):>12.3f} "
              f"{value('sim.dispatch.' + layer + '_per_ref'):>13.3f}")
    print(f"{REST:<10} {value(REST + '.share'):>7.1%} {'':>10} {'':>12} "
          f"{value('sim.dispatch.' + REST + '_per_ref'):>13.3f}")
    print(f"shares from {sampler.samples} samples, each within "
          f"+-{sampler.max_stderr():.2%} (one standard error); "
          f"pp, msgpass and faults are not measured")
    tabled = (".share", ".calls_per_ref", ".self_us_per_ref")
    for key in sorted(metrics):
        if not key.endswith(tabled) and not key.startswith("sim.dispatch."):
            print(f"  {key:<32} {value(key):.6g} {metrics[key]['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: exited with code {done.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
        summary = results[name]
        print(f"{name}: correct={summary['correct']} attempted="
              f"{summary['attempted']} failed={summary['failed']}")
        for key, entry in summary["metrics"].items():
            print(f"  {key:<32} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def use_sources() -> bool:
    """Put the checkout's simulator sources on the path, with no ``REPRO_*``
    knob (fusion, tracing, watchdog, cache...) from the caller's
    environment left to change what is measured.  False if they are
    missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not use_sources():
        sys.stderr.write(f"simulator sources not found under {ROOT / 'src'}\n")
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, args.workload)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
