"""The benchmark's workloads and one repetition of each.

Every repetition starts from a fresh import of the simulator (the ``repro``
modules are dropped from ``sys.modules`` first), builds its machines with
``repro.harness.experiments.build_machine`` -- the uncached path under the
sweep's ``run_app``, so neither the run farm, the in-process memo nor the
disk cache is involved -- and runs them.  The modelled caches start empty,
as in the sweep: each machine is new.

Each simulation is verified: the end-of-run quiesce walk
(``Machine.assert_quiesced``), references retired against references the
op streams generated, and a SHA-256 of the serialized ``RunResult`` that
must repeat between repetitions of one seed.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

clock = time.perf_counter

#: Failure kinds.  The first two are the simulator's own checkers reporting
#: a protocol defect; the others mean the benchmark could not trust a
#: result at all (see ``run.py``'s ``correct``).
DETECTED = ("violation", "stall")

#: ``Machine.run``'s error when the schedule drains with processors still
#: blocked and no watchdog is attached: the one ``RuntimeError`` that is a
#: stall.
DRAINED = "simulation ended before all processors finished"


def purge_repro() -> None:
    """Forget every imported ``repro`` module so the next import is fresh."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


class Repro:
    """Handles on one import of the simulator."""

    def __init__(self):
        self.experiments = importlib.import_module("repro.harness.experiments")
        self.tables = importlib.import_module("repro.harness.tables")
        self.check = importlib.import_module("repro.check")
        self.Machine = importlib.import_module("repro.machine").Machine
        self.Environment = importlib.import_module("repro.sim.engine").Environment
        self.CoherenceViolation = importlib.import_module(
            "repro.common.errors").CoherenceViolation
        self.SimStalledError = importlib.import_module(
            "repro.sim.watchdog").SimStalledError

    @staticmethod
    def module(name: str):
        return importlib.import_module("repro." + name)


class SimRecord:
    """One call of ``Machine.run``, as seen by :class:`RunTap`."""

    __slots__ = ("machine", "entered", "start", "end", "result")

    def __init__(self, machine):
        self.machine = machine
        self.entered = self.start = self.end = clock()
        self.result = None


class RunTap:
    """Wraps ``Machine.run`` to time the simulation itself -- from the first
    simulated event to the drained schedule -- and keep the machine.
    Optionally times the host-speed kernel just before and after it
    (``host``), wraps the op streams (span pass) or runs the sampler over
    the simulation (sampled pass)."""

    def __init__(self, host=None):
        self.records: List[SimRecord] = []
        self.host = host
        self.wrap_stream = None
        self.sampler = None

    def install(self, machine_cls) -> None:
        original = machine_cls.run
        tap = self

        def run(machine, workload, until=None):
            record = SimRecord(machine)
            tap.records.append(record)
            if tap.wrap_stream is not None:
                workload = [tap.wrap_stream(stream) for stream in workload]
            if tap.host is not None:
                tap.host.measure()
            if tap.sampler is not None:
                tap.sampler.start()
            record.start = clock()
            try:
                record.result = original(machine, workload, until)
            finally:
                record.end = clock()
                if tap.sampler is not None:
                    tap.sampler.stop()
                if tap.host is not None:
                    tap.host.measure()
            return record.result

        machine_cls.run = run


@dataclass
class SimOutcome:
    """One simulation of one repetition."""

    label: str
    refs: int                  # references retired (check: oracle-checked)
    messages: int              # network messages sent
    setup_s: float             # build, up to the first simulated event
    sim_s: float               # the simulation itself
    digest: str
    failure: Optional[str] = None
    detail: str = ""
    result: object = None      # the RunResult, when the run completed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_refs(streams) -> int:
    """References an op stream list generates ('r'/'w' ops, with counts)."""
    total = 0
    for stream in streams:
        for op in stream:
            if op[0] == "r" or op[0] == "w":
                total += op[2] if len(op) > 2 else 1
    return total


def _retired(machine) -> int:
    return sum(n.cpu.total_reads + n.cpu.total_writes for n in machine.nodes)


def _stall(error_type: str, message: str) -> bool:
    return error_type == "SimStalledError" or (
        error_type == "RuntimeError" and message == DRAINED)


def _failure(repro, exc) -> str:
    if isinstance(exc, repro.CoherenceViolation):
        return "violation"
    if _stall(type(exc).__name__, str(exc)):
        return "stall"
    return "error"


def _outcome(label, tap, first, begin, refs_of, result, failure, detail,
             generated, streams_of) -> SimOutcome:
    """The outcome of the simulation ``tap`` recorded at index ``first``.
    A completed run must retire exactly the references its op streams
    (``streams_of(config)``, counted once per label) generate; its digest
    is that of the serialized ``RunResult``, a failed run's that of its
    error."""
    record = tap.records[first] if len(tap.records) > first else None
    if record is None:
        return SimOutcome(label, 0, 0, clock() - begin, 0.0, sha256(detail),
                          failure or "error", detail or "no simulation ran")
    machine = record.machine
    if result is not None:
        if label not in generated:
            generated[label] = count_refs(streams_of(machine.config))
        if result.references != generated[label]:
            failure = "refcount"
            detail = (f"retired {result.references} references, "
                      f"streams generated {generated[label]}")
    digest = sha256(result.to_json() if result is not None else detail)
    return SimOutcome(label, refs_of(machine), machine.network.messages_sent,
                      record.entered - begin, record.end - record.start,
                      digest, failure, detail, result)


class AppWorkload:
    """One paper application on FLASH (and, for a pair, then on ideal)."""

    def __init__(self, name, app, regime, kinds, overrides, seeded):
        self.name = name
        self.app = app
        self.regime = regime
        self.kinds = kinds
        self.overrides = overrides
        self.seeded = seeded

    def _overrides(self, seed: int) -> dict:
        overrides = dict(self.overrides)
        if self.seeded:
            overrides["seed"] = seed
        return overrides

    def paper_slowdown(self, repro) -> Optional[float]:
        """Figure 4.1's FLASH-over-ideal slowdown, for a large-regime pair;
        the repo holds no paper value for any other shape."""
        if self.regime != "large" or len(self.kinds) != 2:
            return None
        return repro.tables.PAPER_FIG_4_1_SLOWDOWN[self.app]

    def run_rep(self, repro, seed: int, tap: RunTap,
                generated: Dict[str, int]) -> List[SimOutcome]:
        experiments = repro.experiments
        overrides = self._overrides(seed)
        outcomes = []
        for kind in self.kinds:
            label = f"{self.app}/{kind}"
            first = len(tap.records)
            begin = clock()
            failure, detail, result = None, "", None
            try:
                spec = experiments.normalize_spec(
                    self.app, kind=kind, regime=self.regime, n_procs=16,
                    workload_overrides=overrides, trace=False,
                    metrics=False, loadlat=False)
                machine, ops, _ = experiments.build_machine(spec)
                result = machine.run(ops)
                machine.assert_quiesced()
            except Exception as exc:  # counted as a failed run, never retried
                failure = _failure(repro, exc)
                detail = f"{type(exc).__name__}: {exc}"
                result = None
            outcomes.append(_outcome(
                label, tap, first, begin, _retired, result, failure, detail,
                generated, experiments.app_workload(
                    self.app, **overrides).build))
        return outcomes


class CheckWorkload:
    """A seeded sweep of short ``run_check`` runs: randmem traffic under the
    SC/SWMR oracle, with the tracer attached, on the 16-node FLASH machine."""

    def __init__(self, name, nodes, ops, lines):
        self.name = name
        self.nodes = nodes
        self.ops = ops
        self.lines = lines

    def paper_slowdown(self, repro) -> Optional[float]:
        return None

    def run_rep(self, repro, seed: int, tap: RunTap,
                generated: Dict[str, int]) -> List[SimOutcome]:
        check = repro.check
        outcomes = []
        for lines in self.lines:
            label = f"randmem/flash/lines={lines}"
            spec = check.CheckSpec(seed=seed, ops=self.ops, nodes=self.nodes,
                                   lines=lines, kind="flash")
            first = len(tap.records)
            begin = clock()
            checked, result, failure, detail = 0, None, None, ""
            try:
                report = check.run_check(spec)
            except Exception as exc:  # counted as a failed run, never retried
                failure, detail = "error", f"{type(exc).__name__}: {exc}"
            else:
                checked = report.checked_ops
                if report.ok:
                    result = tap.records[first].result
                else:
                    # run_check calls every RuntimeError a stall; only the
                    # watchdog's and the drained schedule's are.
                    failure = report.failure_kind
                    if failure == "stall" and not _stall(report.error_type,
                                                         report.error):
                        failure = "error"
                    detail = f"{report.error_type}: {report.error}"
            # The reference count comes from the stream run_check builds.
            streams = repro.module("check.workload")._workload(spec).build
            outcomes.append(_outcome(
                label, tap, first, begin, lambda _: checked, result,
                failure, detail, generated, streams))
        return outcomes


#: The four workloads; BENCHMARK.json says why each was chosen.  Problem
#: sizes are the sweep's defaults scaled so one repetition takes a few
#: seconds on a 2-core box while keeping each workload's character:
#: messages per reference, hit and miss rates.
WORKLOADS = {w.name: w for w in (
    AppWorkload("mp3d-large", "mp3d", "large", ("flash", "ideal"),
                dict(particles=1024, cells=512, steps=4), seeded=True),
    AppWorkload("ocean-large", "ocean", "large", ("flash", "ideal"),
                dict(grid=130, n_grids=6, sweeps=1), seeded=False),
    AppWorkload("radix-small", "radix", "small", ("flash",),
                dict(keys=8192), seeded=True),
    # Line counts: 8 is the checker's default hot set; 16 and 64 spread
    # the traffic, and 64 lines overflow the 4 KB (32-line) cache, so
    # evictions and writebacks race with the contended lines.
    CheckWorkload("check-16", nodes=16, ops=200, lines=(8, 16, 64)),
)}


def modelled_counters(results) -> Dict[str, float]:
    """Simulated counters summed over FLASH ``RunResult``s.  They depend
    only on the simulation, so a speed-only change leaves them identical."""
    flash = [r for r in results if r.kind == "flash"]
    refs = sum(r.references for r in flash)
    misses = sum(r.read_misses + r.write_misses for r in flash)
    breakdown = {"busy": 0.0, "cont": 0.0, "read": 0.0, "write": 0.0,
                 "sync": 0.0}
    for r in flash:
        for key, value in r.breakdown.items():
            breakdown[key] += value
    cycles = sum(breakdown.values())
    elapsed = sum(r.execution_time for r in flash)
    issued = sum(r.spec_issued for r in flash)
    mdc_accesses = sum(r.mdc_accesses for r in flash)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "caches.miss_rate": ratio(misses, refs),
        "processor.busy_frac": ratio(breakdown["busy"], cycles),
        "processor.read_stall_frac": ratio(breakdown["read"], cycles),
        "processor.write_stall_frac": ratio(breakdown["write"], cycles),
        "processor.sync_frac": ratio(breakdown["sync"], cycles),
        "magic.pp_occupancy": ratio(
            sum(r.avg_pp_occupancy * r.execution_time for r in flash),
            elapsed),
        "magic.mdc_miss_rate": ratio(
            sum(r.mdc_misses for r in flash), mdc_accesses),
        "magic.spec_useful_frac": ratio(
            issued - sum(r.spec_useless for r in flash), issued),
        "memory.occupancy": ratio(
            sum(r.avg_memory_occupancy * r.execution_time for r in flash),
            elapsed),
        "protocol.handlers_per_miss": ratio(
            sum(r.handler_invocations for r in flash), misses),
        "network.msgs_per_ref": ratio(
            sum(r.network_messages for r in flash), refs),
    }


def slowdown_gap_pp(workload, repro, outcomes) -> float:
    """|model FLASH-over-ideal slowdown - Figure 4.1's| in percentage
    points, the paper value read from ``repro.harness.tables``.  -1 where
    the repo holds no paper value (the model is unvalidated there) or a
    half of the pair failed."""
    paper = workload.paper_slowdown(repro)
    times = {o.label.split("/")[1]: o.result.execution_time
             for o in outcomes if o.result is not None}
    if paper is None or "flash" not in times or "ideal" not in times:
        return -1.0
    model = times["flash"] / times["ideal"] - 1.0
    return abs(model - paper) * 100.0
