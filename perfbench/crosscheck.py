"""Cross-check the sampler's layer shares against cProfile's attribution.

Run from the repository root::

    python3 perfbench/crosscheck.py

Runs one repetition of ocean-large (seed 0) under ``probes.Sampler`` and
one under ``cProfile``, each over the simulations only, and buckets both by
the subsystems of ``python -m repro.harness profile``
(``repro.stats.report.PROFILE_SUBSYSTEMS``).  Two differences are expected
and are not errors: cProfile charges time inside builtins (deque and heap
operations, ``sum``, ...) to ``other``, where the sampler charges it to the
calling simulator frame; and cProfile's per-call cost inflates the
subsystems that make many small calls (the kernel and the CPU loop).
"""

from __future__ import annotations

import cProfile
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probes import LAYERS, REST, Sampler  # noqa: E402
from run import one_rep, use_sources  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _Profiling:
    """cProfile behind the sampler's start/stop, so ``RunTap`` runs it
    over each simulation exactly as it runs the sampler."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def start(self):
        self.profile.enable()

    def stop(self):
        self.profile.disable()


def label_of_layer(subsystems, layer: str) -> str:
    path = f"/repro/{layer}/module.py"
    for label, fragments in subsystems:
        if any(fragment in path for fragment in fragments):
            return label
    return "other"


WORKLOAD = "ocean-large"
SEED = 0


def main() -> int:
    if not use_sources():
        sys.stderr.write("simulator sources not found\n")
        return 2
    workload = WORKLOADS[WORKLOAD]

    sampler = Sampler()

    def attach_sampler(repro, tap):
        tap.sampler = sampler

    _, sampled = one_rep(workload, SEED, {}, attach_sampler)
    profiling = _Profiling()

    def attach_profile(repro, tap):
        tap.sampler = profiling

    _, profiled = one_rep(workload, SEED, {}, attach_profile)
    report = sys.modules["repro.stats.report"]
    subsystems = report.PROFILE_SUBSYSTEMS
    attribution = report.attribute_profile(profiling.profile)

    labels = [label for label, _ in subsystems] + ["other"]
    by_sampler = dict.fromkeys(labels, 0.0)
    for layer, share in sampler.shares().items():
        label = "other" if layer == REST else label_of_layer(subsystems, layer)
        by_sampler[label] += share
    total = attribution["total"] or 1.0
    by_cprofile = {label: attribution["subsystems"].get(label, 0.0) / total
                   for label in labels}
    plain_s = sum(o.sim_s for o in sampled)
    profiled_s = sum(o.sim_s for o in profiled)

    print(f"{WORKLOAD} seed {SEED}: sampler {sampler.samples} "
          f"samples (+-{sampler.max_stderr():.2%} per share); cProfile run "
          f"{profiled_s / plain_s:.2f}x the sampled run's wall time")
    print(f"{'subsystem':<10} {'sampler':>8} {'cProfile':>9} {'diff':>7}")
    for label in labels:
        print(f"{label:<10} {by_sampler[label]:>8.1%} "
              f"{by_cprofile[label]:>9.1%} "
              f"{by_sampler[label] - by_cprofile[label]:>+7.1%}")
    layers = ", ".join(f"{layer}->{label_of_layer(subsystems, layer)}"
                       for layer in LAYERS)
    print(f"layer buckets: {layers}; {REST}->other")
    print(json.dumps({"sampler": by_sampler, "cprofile": by_cprofile,
                      "samples": sampler.samples,
                      "cprofile_slowdown": profiled_s / plain_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
