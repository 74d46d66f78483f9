"""Coherence model checker: oracle, invariants, shrinking, CLI.

The checker's own correctness is established two ways: clean protocols
pass under heavy contention (no false positives across protocol x machine
combinations), and each deliberately-seeded protocol mutation is
caught and shrunk to a small replayable reproducer (no false negatives
for the bug classes the oracle claims to cover).
"""

import json

import pytest

from repro.apps.randmem import RandMemWorkload
from repro.check import (
    CheckSpec, iter_specs, load_reproducer, replay, run_check,
    save_reproducer, shrink,
)
from repro.check.oracle import CoherenceOracle
from repro.check.workload import _build_machine, _workload
from repro.common.errors import CoherenceViolation

MUTATIONS = ("drop_sharer", "stale_reply", "skip_inval", "no_ack")


#: Clean runs: every protocol on both machines at the default shape, plus
#: a 16-node FLASH run where a home's INVAL for a later GETX overtakes the
#: PUT of an earlier read -- a legal race the oracle once flagged.
CLEAN_CASES = [
    pytest.param(dict(seed=0, ops=150, nodes=4, kind=kind, protocol=protocol),
                 id=f"{protocol}-{kind}")
    for kind in ("flash", "ideal")
    for protocol in ("base", "migratory", "transfer")
] + [
    pytest.param(dict(seed=5, ops=200, nodes=16, lines=8, kind="flash"),
                 id="inval-overtakes-put-16"),
]


class TestCleanMatrix:
    """A correct protocol never trips the checker."""

    @pytest.mark.parametrize("fields", CLEAN_CASES)
    def test_clean_pass(self, fields):
        spec = CheckSpec(**fields)
        report = run_check(spec)
        assert report.ok, f"{spec.describe()}: {report.error}"
        assert report.checked_ops > spec.ops     # every cpu contributes
        assert report.quiesce_checks >= 2        # mid-run barriers walked

    def test_clean_under_faults(self):
        report = run_check(CheckSpec(seed=1, ops=200, nodes=4,
                                     fault_rate=0.05))
        assert report.ok, report.error
        assert report.checked_ops > 200


class TestObserverPurity:
    """Attaching the oracle must not change simulated behaviour."""

    def test_checked_run_timing_identical(self):
        spec = CheckSpec(seed=2, ops=150, nodes=4)

        plain = _build_machine(spec)
        plain_result = plain.run(_workload(spec).build(plain.config))

        checked = _build_machine(spec)
        oracle = CoherenceOracle(checked)
        oracle.attach(checked)
        checked_result = checked.run(_workload(spec).build(checked.config))

        assert checked_result.execution_time == plain_result.execution_time
        assert checked_result.total_reads == plain_result.total_reads
        assert checked_result.total_writes == plain_result.total_writes
        assert oracle.checked_ops > 0


class TestMutationsCaught:
    """Every seeded protocol bug is detected and shrinks to a small,
    replayable reproducer — the checker's self-test."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_detected_and_shrunk(self, mutation, tmp_path):
        spec = CheckSpec(seed=0, ops=400, nodes=4, mutation=mutation)
        report = run_check(spec)
        assert not report.ok, f"{mutation} escaped the checker"
        if mutation == "no_ack":
            assert report.failure_kind == "stall"   # writer wedges forever
        else:
            assert report.failure_kind == "violation"
            assert report.violation is not None

        best, attempts = shrink(report)
        assert not best.ok
        assert best.spec.ops <= spec.ops // 4, (
            f"{mutation}: shrunk reproducer still {best.spec.ops} ops")
        assert attempts > 0

        path = save_reproducer(best, spec, attempts, str(tmp_path))
        assert load_reproducer(path) == best.spec
        replayed = replay(path)
        assert not replayed.ok
        assert replayed.failure_kind == best.failure_kind

    def test_violation_carries_state_dump(self):
        report = run_check(CheckSpec(seed=0, ops=400, nodes=4,
                                     mutation="stale_reply"))
        assert report.failure_kind == "violation"
        assert report.error.startswith("stale shared reply")  # at the home
        dump = report.violation["dump"]
        assert "directory" in dump and "caches" in dump
        assert "shadow" in dump or "line" in dump


class TestQuiesceInvariants:
    def test_assert_quiesced_clean(self):
        spec = CheckSpec(seed=0, ops=100, nodes=4)
        machine = _build_machine(spec)
        machine.run(_workload(spec).build(machine.config))
        machine.assert_quiesced()   # must not raise

    def test_assert_quiesced_flags_planted_pending(self):
        spec = CheckSpec(seed=0, ops=50, nodes=4)
        machine = _build_machine(spec)
        machine.run(_workload(spec).build(machine.config))
        node = machine.nodes[0]
        line = next(iter(node.directory._entries), None)
        if line is None:   # node 0 saw no home traffic: plant an entry
            node.directory.entry(0)
            line = 0
        node.directory.entry(line).pending = True
        with pytest.raises(CoherenceViolation):
            machine.assert_quiesced()


class TestSpecPlumbing:
    def test_spec_roundtrip(self):
        spec = CheckSpec(seed=7, ops=99, nodes=8, protocol="migratory",
                         fault_rate=0.05, mutation="no_ack")
        assert CheckSpec.from_dict(spec.to_dict()) == spec

    def test_iter_specs_skips_invalid_fault_combos(self):
        specs = list(iter_specs([0], ops=10, nodes=2, lines=2,
                                protocols=("base",), kinds=("flash", "ideal"),
                                fault_rates=(0.0, 0.1)))
        assert all(s.kind == "flash" for s in specs if s.fault_rate)
        assert {s.kind for s in specs} == {"flash", "ideal"}

    def test_reproducer_with_fusion_field_replays(self, tmp_path):
        # Reproducers saved when the controllers still had a fusion mode
        # carry a "fusion" field; loading ignores it.
        spec = CheckSpec(seed=0, ops=60, nodes=2)
        path = save_reproducer(run_check(spec), spec, 0, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["spec"]["fusion"] = False
        payload["original_spec"]["fusion"] = False
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert load_reproducer(path) == spec
        replayed = replay(path)
        assert replayed.ok, replayed.error
        assert replayed.checked_ops > 0

    def test_validate_rejects_faults_on_ideal(self):
        with pytest.raises(ValueError):
            CheckSpec(kind="ideal", fault_rate=0.1).validate()


class TestRandMemWorkload:
    def test_deterministic_streams(self):
        from repro.common.params import flash_config

        config = flash_config(4, cache_size=4096)
        first = [list(s) for s in RandMemWorkload(seed=3, ops=60).build(config)]
        second = [list(s) for s in RandMemWorkload(seed=3, ops=60).build(config)]
        assert first == second
        assert len(first) == 4
        other = [list(s) for s in RandMemWorkload(seed=4, ops=60).build(config)]
        assert first != other

    def test_transfer_lane_emits_sends(self):
        from repro.common.params import flash_config

        config = flash_config(4, cache_size=4096)
        streams = RandMemWorkload(seed=0, ops=250,
                                  transfers=True).build(config)
        kinds = {op[0] for stream in streams for op in stream}
        assert {"r", "w", "b", "s", "v"} <= kinds


class TestCheckCLI:
    def test_clean_sweep_exits_zero(self, capsys):
        from repro.harness.__main__ import main

        code = main(["check", "--seed", "0", "--ops", "100",
                     "--protocols", "base", "--kinds", "flash", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["failed"] == 0
        assert payload["checked_ops"] > 0

    def test_mutated_sweep_fails_with_artifact(self, capsys, tmp_path):
        from repro.harness.__main__ import main

        code = main(["check", "--seed", "0", "--ops", "400",
                     "--protocols", "base", "--kinds", "flash",
                     "--mutate", "skip_inval",
                     "--out-dir", str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        (failing,) = [r for r in payload["reports"] if not r["ok"]]
        shrunk = failing["shrunk"]
        assert shrunk["spec"]["ops"] <= 100
        replayed = replay(shrunk["artifact"])
        assert not replayed.ok


class TestFaultsCLI:
    def test_raising_run_exits_nonzero(self, capsys, monkeypatch):
        from repro.harness import __main__ as harness_main

        calls = []

        def fake_run_app(app, **kwargs):
            calls.append(kwargs)
            if kwargs.get("faults") is not None:
                raise RuntimeError("injected wedge")

            class _Result:
                execution_time = 100.0
            return _Result()

        monkeypatch.setattr(harness_main, "run_app", fake_run_app)
        code = harness_main.main(["faults", "fft", "--rates", "0.5",
                                  "--fast", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        assert payload["failures"][0]["error_type"] == "RuntimeError"
        assert len(calls) == 2   # clean + one faulted

    def test_clean_sweep_exits_zero(self, capsys, monkeypatch):
        from repro.harness import __main__ as harness_main

        class _Result:
            execution_time = 100.0
            fault_counters = None

        monkeypatch.setattr(harness_main, "run_app",
                            lambda app, **kwargs: _Result())
        code = harness_main.main(["faults", "fft", "--rates", "0.1",
                                  "--fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["failures"] == []
