"""An untraced benchmark measurement of a tiny detection workload.

The benchmark's self-tests trace a training workload only. This test runs the
timers of an untraced run (``boundary_probe``) around ``earlydetect`` and the
closing ``export-features``, and the end-to-end metrics built from them.
"""

import math
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run as bench  # noqa: E402
from workloads import DetectWorkload, Session  # noqa: E402

from rumorgraph import cli  # noqa: E402

TINY_DETECT = DetectWorkload(
    name="tiny-detect",
    why="an untraced detection run small enough for a unit test",
    model={"d_in": 16, "d_hidden": 16, "d_out": 8},
    train_corpus={"source_events": 16, "target_events": 24, "mean_replies": 3},
    eval_corpus={"source_events": 4, "target_events": 24, "mean_replies": 3},
    epochs=1,
)


def test_untraced_detection_run_reports_a_finite_eval_rate(tmp_path):
    session = Session(cli.main)
    run = bench.measure(TINY_DETECT, 5, 0, False, tmp_path, session)
    metrics, _extra = bench.end_to_end(run, import_s=0.0)
    rate = metrics["eval_events_per_ref"]["value"]
    assert math.isfinite(rate) and rate > 0
    assert session.failed == 0
    assert run.oracle_deviation <= 1e-9
