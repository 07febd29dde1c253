"""Heterogeneous-fleet regressions: home-device identity end to end.

The fix under test: a mixed fleet used to measure every task on the
*compiler's* device and key every tuning-log record as that class, so
``--devices gtx1080ti,titanv`` silently tuned everything for the
1080 Ti.  Now the home device (``seq % len(fleet)``) supplies the cost
model and the tlog identity, and these tests pin that contract:

* each task's records are bit-identical to a serial compile targeting
  its home device, for any worker count;
* tuning-log records carry the device class they were *measured* on,
  and exact hits never cross classes;
* checkpoints resume a mixed fleet to the uninterrupted result;
* reports expose per-class scheduling (``by_class``) and per-device
  fault seeds;
* a mixed fleet deploys only configs that run on the compile target.
"""

import logging
import math

import pytest

from repro.fleet import Fleet, FleetDevice
from repro.fleet.reporting import fleet_report_dict
from repro.hardware.device import device_preset, normalize_device_name
from repro.nn.graph import GraphBuilder
from repro.pipeline.compiler import DeploymentCompiler
from repro.tlog import TuningLogDB

SPEC = "gtx1080ti,titanv,jetsontx2"
CLASSES = SPEC.split(",")
#: device-class labels (normalized full names — the tlog/report identity)
LABELS = [normalize_device_name(device_preset(h).name) for h in CLASSES]
ARM_KWARGS = dict(batch_size=8)
N_TRIAL = 16


def _model():
    # three distinct conv tasks: one per device class of SPEC
    b = GraphBuilder("hetero-tiny")
    b.input((1, 3, 16, 16))
    b.conv2d("c1", 8, padding=(1, 1))
    b.relu("r1")
    b.pool2d("p1")
    b.conv2d("c2", 12, padding=(1, 1))
    b.relu("r2")
    b.conv2d("c3", 16, padding=(1, 1))
    b.relu("r3")
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


def _trace(result):
    return [
        (r.step, r.config_index, r.gflops, r.error) for r in result.records
    ]


def _tune(device=None, **kwargs):
    if device is None:
        compiler = DeploymentCompiler(_model(), env_seed=123)
    else:
        compiler = DeploymentCompiler(
            _model(), device=device_preset(device), env_seed=123
        )
    compiled = compiler.tune(
        "random", n_trial=N_TRIAL, early_stopping=None, trial_seed=0,
        tuner_kwargs=ARM_KWARGS, **kwargs,
    )
    return compiler, compiled


class TestHomeDeviceMeasurement:
    @pytest.fixture(scope="class")
    def serial_by_class(self):
        return {
            handle: _tune(device=handle)[1] for handle in CLASSES
        }

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_task_records_match_home_device_serial_run(
        self, serial_by_class, jobs
    ):
        _, mixed = _tune(fleet=SPEC, fleet_jobs=jobs)
        for task_id, result in mixed.tuning_results.items():
            home = CLASSES[task_id % len(CLASSES)]
            expected = serial_by_class[home].tuning_results[task_id]
            assert _trace(result) == _trace(expected), (
                f"task {task_id} diverged from its {home} serial run "
                f"with {jobs} worker(s)"
            )

    def test_mixed_fleet_differs_from_single_device_serial(
        self, serial_by_class
    ):
        # the old (buggy) behavior: mixed fleet == compiler-device
        # serial run.  The zoo presets rank configs differently, so at
        # least one task homed off-class must now produce a different
        # record stream.
        _, mixed = _tune(fleet=SPEC, fleet_jobs=2)
        baseline = serial_by_class["gtx1080ti"]
        diverged = [
            task_id
            for task_id, result in mixed.tuning_results.items()
            if _trace(result) != _trace(baseline.tuning_results[task_id])
        ]
        assert diverged, "mixed fleet reproduced the single-device run"
        # ...and every diverging task is one homed off the compiler's
        # class; task 0 homes on gtx1080ti and must still match
        assert all(t % len(CLASSES) != 0 for t in diverged)

    def test_mixed_fleet_resumes_bit_identical(self, tmp_path):
        _, uninterrupted = _tune(fleet=SPEC, fleet_jobs=2)
        ckpt = tmp_path / "ckpt"
        _tune(fleet=SPEC, fleet_jobs=2, checkpoint_dir=str(ckpt))
        # the resumed run loads every task from its home device's
        # checkpoint subdir and reproduces the uninterrupted compile
        done = sorted(ckpt.rglob("*.done"))
        assert len(done) == 3
        mtimes = {p: p.stat().st_mtime_ns for p in done}
        _, resumed = _tune(
            fleet=SPEC, fleet_jobs=4, checkpoint_dir=str(ckpt), resume=True
        )
        for task_id, result in resumed.tuning_results.items():
            assert _trace(result) == _trace(
                uninterrupted.tuning_results[task_id]
            )
        assert {p: p.stat().st_mtime_ns for p in done} == mtimes


def _dw_model():
    # the depthwise task (task 1) homes on the Titan V of
    # "gtx1080ti,titanv"; at trial seed 1 its best config there is
    # invalid on the GTX 1080 Ti compile target
    b = GraphBuilder("hetero-dw")
    b.input((1, 64, 56, 56))
    b.conv2d("c1", 64, padding=(1, 1))
    b.depthwise_conv2d("dw1", padding=(1, 1))
    b.flatten("f")
    b.dense("fc", 10)
    return b.graph


class TestMixedFleetDeploy:
    def test_mixed_fleet_deploys_only_finite_kernels(self):
        compiler = DeploymentCompiler(_dw_model(), env_seed=123)
        compiled = compiler.tune(
            "random", n_trial=16, early_stopping=None, trial_seed=1,
            fleet="gtx1080ti,titanv", fleet_jobs=1,
        )
        dw = compiler.tasks[1]
        home_best = compiled.tuning_results[dw.task_id].best_index
        target = compiler.simulated_task(dw)
        assert not math.isfinite(target.true_time_s(home_best))
        assert all(math.isfinite(k.time_s) for k in compiled.kernels)
        # the deployed depthwise kernel is a tuned config, not the
        # default schedule
        default = compiler._compile({dw.task_id: None})
        name = dw.kernel_names[0]
        times = [
            {k.name: k.time_s for k in c.kernels}[name]
            for c in (compiled, default)
        ]
        assert times[0] != times[1]

    def test_invalid_config_falls_back_to_default_schedule(self, caplog):
        compiler = DeploymentCompiler(_dw_model(), env_seed=123)
        dw = compiler.tasks[1]
        target = compiler.simulated_task(dw)
        invalid = next(
            i for i in range(len(target.space))
            if not math.isfinite(target.true_time_s(i))
        )
        with caplog.at_level(logging.WARNING, logger="repro"):
            compiled = compiler._compile({dw.task_id: invalid})
        default = compiler._compile({dw.task_id: None})
        assert [k.time_s for k in compiled.kernels] == [
            k.time_s for k in default.kernels
        ]
        assert any("invalid" in r.getMessage() for r in caplog.records)


class TestTlogIdentity:
    def test_records_keyed_by_measuring_class(self, tmp_path):
        db = TuningLogDB(tmp_path / "tlog")
        _tune(fleet=SPEC, fleet_jobs=2, tlog=db)
        by_class = {}
        for sig in db.signatures():
            by_class.setdefault(sig.device_class, 0)
            by_class[sig.device_class] += 1
        # one conv task homed per class
        assert by_class == {label: 1 for label in LABELS}

    def test_exact_hits_never_cross_classes(self, tmp_path):
        db = TuningLogDB(tmp_path / "tlog")
        _tune(device="titanv", tlog=db)
        assert len(db) > 0
        # same class: every task is served from the log
        _, replay = _tune(device="titanv", tlog=db)
        assert set(replay.tlog_status.values()) == {"hit"}
        # different class: the same model stays cold — titanv records
        # must never serve a jetsontx2 compile
        _, cold = _tune(device="jetsontx2", tlog=db)
        assert set(cold.tlog_status.values()) == {"cold"}

    def test_fleet_signatures_match_home_classes(self, tmp_path):
        db = TuningLogDB(tmp_path / "tlog")
        compiler, compiled = _tune(fleet=SPEC, fleet_jobs=3, tlog=db)
        for spec in compiler.tasks:
            home = device_preset(CLASSES[spec.task_id % len(CLASSES)])
            sig = spec.signature(home)
            records = db.lookup_exact(sig)
            if compiled.tuning_results[spec.task_id].records:
                assert records, (
                    f"task {spec.task_id} left no records under its "
                    f"home class {sig.device_class}"
                )


class TestFleetIntrospection:
    def test_device_classes_and_uniformity(self):
        mixed = Fleet.from_spec(SPEC)
        assert mixed.device_classes == LABELS
        assert not mixed.is_uniform
        uniform = Fleet.from_spec("gtx1080ti,gtx1080ti")
        assert uniform.device_classes == ["geforcegtx1080ti"]
        assert uniform.is_uniform

    def test_describe_shows_fault_seed_override(self):
        fleet = Fleet.build([
            FleetDevice(index=0),
            FleetDevice(index=1, fault_rate=0.4, fault_seed=7),
        ])
        lines = fleet.describe()
        assert "fault_seed" not in lines[0]
        assert "fault_rate=0.4" in lines[1]
        assert "fault_seed=7" in lines[1]

    def test_report_by_class_rollup(self):
        _, mixed = _tune(fleet=SPEC, fleet_jobs=2)
        report = fleet_report_dict(mixed.fleet)
        assert sorted(report["by_class"]) == sorted(LABELS)
        total = 0.0
        for label in LABELS:
            row = report["by_class"][label]
            assert row["devices"] == 1
            assert row["homed"] == 1
            assert row["measurements"] > 0
            total += row["utilization"]
        assert total == pytest.approx(1.0, abs=1e-4)
        for entry in report["devices"]:
            assert entry["device_class"] in LABELS
