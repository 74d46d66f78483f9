"""Check specs and the single-run checker driver.

A :class:`CheckSpec` is one fully-determined checked run: the machine
shape, protocol variant, backend, fault plan, seed and traffic volume.
:func:`run_check` builds the machine, attaches the
:class:`~repro.check.oracle.CoherenceOracle`, runs the seeded
:class:`~repro.apps.randmem.RandMemWorkload`, performs the strict
end-of-run invariant walk, and returns a :class:`CheckReport` — never
raising: protocol bugs surface as structured failures so the sweep and
shrinking layers can treat them as data.

Specs round-trip through plain dicts (``to_dict`` / ``from_dict``), which
is what makes shrunk failure reproducers replayable JSON artifacts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterator, Optional

from ..common.errors import CoherenceViolation
from ..common.params import flash_config, ideal_config

__all__ = ["CheckSpec", "CheckReport", "run_check", "iter_specs",
           "PROTOCOLS", "KINDS"]

#: Protocol axis of the sweep.  ``transfer`` is the base protocol plus the
#: block-transfer lane in the workload (send/recv traffic interleaved with
#: the contended cached lines).
PROTOCOLS = ("base", "migratory", "transfer")
KINDS = ("flash", "ideal")

#: Generous watchdog budget for checked runs: a wedged protocol (e.g. the
#: ``no_ack`` mutation) must terminate with a diagnosis, not hang CI.
_WATCHDOG = {"event_budget": 5_000_000}


@dataclass(frozen=True)
class CheckSpec:
    """One deterministic checked run."""

    seed: int = 0
    ops: int = 400              # per-processor operation count
    nodes: int = 4
    lines: int = 8              # contended-line working set
    kind: str = "flash"         # "flash" | "ideal"
    protocol: str = "base"      # "base" | "migratory" | "transfer"
    backend: str = "table"      # PP cost backend (flash only)
    fault_rate: float = 0.0     # FaultPlan.uniform rate (flash+table only)
    cache_bytes: int = 4096     # small cache => evictions stay in play
    write_frac: float = 0.35
    zipf_theta: float = 0.8
    barrier_every: int = 64     # quiesce-point cadence (ops per episode)
    mutation: Optional[str] = None  # test-only protocol mutation hook

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.fault_rate and (self.kind != "flash"
                                or self.backend != "table"):
            raise ValueError(
                "fault injection requires the flash machine with the "
                "table backend")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "CheckSpec":
        return cls(**{k: state[k] for k in cls.__dataclass_fields__
                      if k in state})

    def with_changes(self, **kwargs) -> "CheckSpec":
        return replace(self, **kwargs)

    def describe(self) -> str:
        tags = [f"seed={self.seed}", f"ops={self.ops}",
                f"nodes={self.nodes}", f"lines={self.lines}",
                self.kind, self.protocol]
        if self.fault_rate:
            tags.append(f"faults={self.fault_rate:g}")
        if self.mutation:
            tags.append(f"mutation={self.mutation}")
        return " ".join(tags)


@dataclass
class CheckReport:
    """Outcome of one checked run."""

    spec: CheckSpec
    ok: bool
    checked_ops: int = 0
    quiesce_checks: int = 0
    execution_time: float = 0.0
    #: failure classification: "violation" (oracle/invariant), "stall"
    #: (watchdog or drained-unfinished schedule), "error" (anything else).
    failure_kind: Optional[str] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    violation: Optional[dict] = None
    shrunk: Optional[dict] = None   # filled in by the shrinking layer

    def to_dict(self) -> dict:
        state = {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "checked_ops": self.checked_ops,
            "quiesce_checks": self.quiesce_checks,
            "execution_time": self.execution_time,
        }
        if not self.ok:
            state["failure_kind"] = self.failure_kind
            state["error_type"] = self.error_type
            state["error"] = self.error
            if self.violation is not None:
                state["violation"] = self.violation
            if self.shrunk is not None:
                state["shrunk"] = self.shrunk
        return state


def _build_machine(spec: CheckSpec):
    from ..machine import Machine

    make = flash_config if spec.kind == "flash" else ideal_config
    kwargs = {"cache_size": spec.cache_bytes, "protocol":
              ("migratory" if spec.protocol == "migratory" else "base")}
    if spec.kind == "flash":
        kwargs["pp_backend"] = spec.backend
    config = make(spec.nodes, **kwargs)
    faults = None
    if spec.fault_rate:
        from ..faults import FaultPlan
        faults = FaultPlan.uniform(spec.fault_rate, seed=spec.seed)
    return Machine(config, faults=faults, watchdog=dict(_WATCHDOG),
                   trace=True)


def _workload(spec: CheckSpec):
    from ..apps.randmem import RandMemWorkload

    return RandMemWorkload(
        seed=spec.seed, ops=spec.ops, lines=spec.lines,
        write_frac=spec.write_frac, zipf_theta=spec.zipf_theta,
        barrier_every=spec.barrier_every,
        transfers=(spec.protocol == "transfer"),
    )


def run_check(spec: CheckSpec) -> CheckReport:
    """Execute one checked run; failures come back as data, not raises."""
    from .oracle import CoherenceOracle

    spec.validate()
    machine = _build_machine(spec)
    for node in machine.nodes:
        node.engine.mutation = spec.mutation
    oracle = CoherenceOracle(machine)
    oracle.attach(machine)
    streams = _workload(spec).build(machine.config)
    try:
        result = machine.run(streams)
        machine.assert_quiesced()
        leaked = {key: count for key, count in oracle.queued.items() if count}
        if leaked:
            raise CoherenceViolation(
                "queued writes never performed (no exclusive fill arrived)",
                dump={"leaked": {f"node {n} line {l:#x}": c
                                 for (n, l), c in leaked.items()}})
    except CoherenceViolation as exc:
        return CheckReport(
            spec, ok=False, checked_ops=oracle.checked_ops,
            quiesce_checks=oracle.quiesce_checks,
            failure_kind="violation", error_type=type(exc).__name__,
            error=str(exc), violation=exc.to_dict())
    except Exception as exc:  # stalls, NAK storms, anything unexpected
        from ..sim.watchdog import SimStalledError

        kind = "stall" if isinstance(exc, (SimStalledError, RuntimeError)) \
            else "error"
        return CheckReport(
            spec, ok=False, checked_ops=oracle.checked_ops,
            quiesce_checks=oracle.quiesce_checks,
            failure_kind=kind, error_type=type(exc).__name__,
            error=str(exc))
    return CheckReport(
        spec, ok=True, checked_ops=oracle.checked_ops,
        quiesce_checks=oracle.quiesce_checks,
        execution_time=result.execution_time)


def iter_specs(seeds, ops: int, nodes: int, lines: int,
               protocols=PROTOCOLS, kinds=KINDS, fault_rates=(0.0,),
               backend: str = "table",
               mutation: Optional[str] = None) -> Iterator[CheckSpec]:
    """The sweep grid, skipping combinations the machine cannot build
    (fault injection targets flash with the table backend)."""
    for seed in seeds:
        for kind in kinds:
            for protocol in protocols:
                for rate in fault_rates:
                    if rate and (kind != "flash" or backend != "table"):
                        continue
                    yield CheckSpec(
                        seed=seed, ops=ops, nodes=nodes, lines=lines,
                        kind=kind, protocol=protocol, backend=backend,
                        fault_rate=rate, mutation=mutation)
