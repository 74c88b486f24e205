"""An untraced benchmark measurement of a tiny training workload.

The benchmark's self-tests trace training, and ``test_bench_detect.py``
measures detection; this test runs the timers of an untraced run
(``boundary_probe``) around a cross-validated ``train``, and the end-to-end
metrics built from them.
"""

import math
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run as bench  # noqa: E402
from workloads import Session, TrainWorkload  # noqa: E402

from rumorgraph import cli  # noqa: E402

TINY_TRAIN = TrainWorkload(
    name="tiny-train",
    why="an untraced training run small enough for a unit test",
    model={"d_in": 16, "d_hidden": 16, "d_out": 8},
    corpus={"source_events": 8, "target_events": 16, "mean_replies": 3},
    epochs=1,
    folds=2,
)


def test_untraced_training_run_reports_a_finite_step_time(tmp_path):
    session = Session(cli.main)
    run = bench.measure(TINY_TRAIN, 5, 0, False, tmp_path, session)
    metrics, _extra = bench.end_to_end(run, import_s=0.0)
    step = metrics["step_ref_p50"]["value"]
    assert math.isfinite(step) and step > 0
    assert math.isfinite(metrics["loss_last"]["value"])
    assert session.failed == 0
