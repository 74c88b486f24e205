"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; scratch files go under ``perfbench/work/`` and are removed at
the end, and the run record goes to ``perfbench/results/``.

An untraced run (``--trace 0``) sets up its inputs several times, runs one
warm-up pass and then passes until ``--seconds`` have gone by (at least two),
with timers only around ``train_step``, ``evaluate_prepared``,
``predict_events`` and ``GraphBatch.from_events``. Every set-up and pass is
preceded by the reference workload of ``calibration.py``. It prints the
end-to-end metrics. A traced run (``--trace 1``) sets up once untraced and once traced,
runs an untraced warm-up pass and then alternates untraced and traced passes,
and prints the per-layer metrics of one set-up plus one pass. A workload's closing command (the
``export-features`` of ``detect-export``) runs once, after the passes, traced
in a traced run. Both check the outputs: every command
exits 0, every logged loss is finite, repeated set-ups and passes write
byte-identical artifacts, tracing changes no artifact, and the model's
representations match a plain-numpy forward pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import reference_seconds
from layers import BOUNDARY, OBSERVERS, PER_LAYER, combine, per_layer_metrics
from probe import Probe, Target, full_targets, resolve
from stats import tail_percentile
from workloads import WORKLOADS, CheckFailed, CommandFailed, Session, artifact_hashes, event_stats, require

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPS = 3
MIN_MEASURED_PASSES = 2
ORACLE_EVENTS = 16
# manifests hash the run configuration, which names the scratch directory
UNHASHED = ("manifest.json", "train.json", "snapshot.json")

# (name, unit, direction); the end-to-end metrics every workload reports.
# Timings other than set-up read in reference units (see calibration.py).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_ref", "ref", "lower"),
    ("step_ref_p50", "ref", "lower"),
    ("eval_events_per_ref", "1/ref", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("loss_last", "nats", "lower"),
)


def load_program() -> float:
    """Import rumorgraph from this checkout's ``src/``; returns the import time."""
    src = ROOT / "src"
    if not (src / "rumorgraph" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rumorgraph package under {src}")
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import rumorgraph.cli  # noqa: F401

    if not Path(rumorgraph.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"rumorgraph was imported from {rumorgraph.cli.__file__}, not {src}")
    return time.perf_counter() - start


@dataclass
class Phase:
    """One set-up or pass: its wall time, probe, artifact hashes and results."""

    wall: float
    probe: object
    hashes: dict[str, str]
    result: object = None
    reference: float = 0.0  # seconds of the reference workload just before the phase


@dataclass
class Run:
    workload: object
    seed: int
    seconds: float
    trace: bool
    session: object
    setups: list[Phase] = field(default_factory=list)
    passes: list[Phase] = field(default_factory=list)
    traced_setup: Phase | None = None
    traced_passes: list[Phase] = field(default_factory=list)
    final: Phase | None = None  # checked once after the passes
    input_stats: dict = field(default_factory=dict)
    oracle_deviation: float | None = None
    oracle_events: int = 0


def _phase(probe, directory: Path, action) -> Phase:
    reference = reference_seconds()
    start = time.perf_counter()
    if probe is None:
        result = action()
    else:
        with probe:
            result = action()
    wall = time.perf_counter() - start
    hashes = artifact_hashes(directory, UNHASHED)
    return Phase(wall=wall, probe=probe, hashes=hashes, result=result, reference=reference)


def boundary_probe():
    return Probe([Target(name, resolve(owner), attr, OBSERVERS.get(name)) for name, owner, attr in BOUNDARY])


def full_probe():
    return Probe(full_targets(OBSERVERS))


def _require_same(phases: list[Phase], what: str) -> None:
    first = phases[0].hashes
    require(bool(first), f"{what} wrote no artifacts")
    for i, phase in enumerate(phases[1:], start=1):
        differing = sorted(k for k in first.keys() | phase.hashes.keys() if first.get(k) != phase.hashes.get(k))
        require(not differing, f"{what} {i} differs from {what} 0 in {differing}")


def _set_up(run: Run, work: Path, i: int, probe) -> Phase:
    directory = work / f"setup{i}"
    directory.mkdir()
    return _phase(probe, directory, lambda: run.workload.setup(run.session, directory, run.seed))


def _pass(run: Run, work: Path, probe) -> Phase:
    """The next pass, in its own directory; the previous pass's directory goes."""
    i = len(run.passes) + len(run.traced_passes)
    directory = work / f"pass{i}"
    directory.mkdir()
    inputs = run.setups[0].result
    phase = _phase(probe, directory, lambda: run.workload.run_pass(run.session, inputs, directory))
    if i > 0:
        shutil.rmtree(work / f"pass{i - 1}")
    return phase


def _untraced(run: Run, work: Path) -> None:
    for i in range(SETUP_REPS):
        run.setups.append(_set_up(run, work, i, boundary_probe()))
    _require_same(run.setups, "set-up")
    start = time.perf_counter()
    while len(run.passes) < 1 + MIN_MEASURED_PASSES or time.perf_counter() - start < run.seconds:
        run.passes.append(_pass(run, work, boundary_probe()))
    _require_same(run.passes, "pass")


def _traced(run: Run, work: Path) -> None:
    run.setups.append(_set_up(run, work, 0, None))
    run.traced_setup = _set_up(run, work, 1, full_probe())
    _require_same([run.setups[0], run.traced_setup], "traced set-up")
    start = time.perf_counter()
    run.passes.append(_pass(run, work, None))
    # untraced and traced passes alternate, so the overhead estimate sees the same machine load
    while not run.traced_passes or time.perf_counter() - start < run.seconds:
        run.passes.append(_pass(run, work, None))
        run.traced_passes.append(_pass(run, work, full_probe()))
    _require_same(run.passes + run.traced_passes, "pass")


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, session) -> Run:
    """Set up and pass ``workload``, then check the oracle; raises CommandFailed
    or CheckFailed. Leaves the global precision as it found it."""
    from rumorgraph import numcore as nc

    run = Run(workload, seed, seconds, trace, session)
    precision = "f32" if nc.active_dtype() == "float32" else "f64"
    try:
        (_traced if trace else _untraced)(run, work)
        inputs = run.setups[0].result
        run.input_stats = {role: event_stats(path) for role, path in inputs.files.items() if path.suffix == ".jsonl"}
        last = work / f"pass{len(run.passes) + len(run.traced_passes) - 1}"
        (work / "final").mkdir()
        final_probe = full_probe() if trace else None
        run.final = _phase(final_probe, work / "final", lambda: workload.after_passes(session, inputs, work / "final"))
        run.oracle_deviation, run.oracle_events = check_oracle(workload, inputs, last)
    finally:
        # the train command sets the global precision and leaves it set
        nc.set_precision(precision)
    return run


def check_oracle(workload, inputs, out: Path) -> tuple[float, int]:
    """Compare ``predict_events`` with the plain-numpy forward on the first events."""
    import numpy as np
    import oracle
    from rumorgraph.dataio import parse_events
    from rumorgraph.embed import HashedProvider, embed_event
    from rumorgraph.evalkit import predict_events
    from rumorgraph.model import load_snapshot

    snapshot = workload.oracle_snapshot(inputs, out)
    events = parse_events(inputs.events).events[:ORACLE_EVENTS]
    params, _seed = load_snapshot(snapshot)
    provider = HashedProvider(dim=params.config.d_in)
    _preds, reps = predict_events(events, params, provider)
    samples = [
        (
            embed_event(e, provider).rows,
            oracle.parent_rows([p.post_id for p in e.posts], [p.parent_id for p in e.posts]),
        )
        for e in events
    ]
    deviation = oracle.max_deviation(snapshot, samples, np.asarray(reps))
    require(deviation <= oracle.TOLERANCE, f"representations deviate from the oracle by {deviation:.3g}")
    return deviation, len(events)


# -- metrics --------------------------------------------------------------------


def _eval_rate(phase: Phase) -> float:
    """Events scored per second of evaluation-mode encoding in one pass."""
    names = ("trainer.evaluate_prepared", "evalkit.predict_events")
    events = sum(phase.probe.counters.get(n, {}).get("events", 0) for n in names)
    return events / sum(sum(phase.probe.durations(n)) for n in names)


def end_to_end(run: Run, import_s: float) -> tuple[dict, dict]:
    """The JSON metrics, and further figures for the report: the same timings
    in seconds, and workload-specific ones."""
    measured = run.passes[1:]
    steps = [d for phase in run.setups[1:] + measured for d in phase.probe.durations("trainer.train_step")]
    results = [p.result for p in measured]
    reference = statistics.median(p.reference for p in run.setups + run.passes)
    seconds = {
        "pass_s": statistics.median(p.wall for p in measured),
        "step_s_p50": statistics.median(steps),
        "eval_events_per_s": statistics.median(_eval_rate(p) for p in measured),
    }
    values = {
        "setup_s": import_s + statistics.median(p.wall for p in run.setups),
        "pass_ref": seconds["pass_s"] / reference,
        "step_ref_p50": seconds["step_s_p50"] / reference,
        "eval_events_per_ref": seconds["eval_events_per_s"] * reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_last": results[-1]["loss_last"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    extra = {"reference_s": reference, **seconds, "import_s": import_s, "measured_passes": len(measured), "steps": len(steps)}
    tail = tail_percentile(steps)
    if tail is not None and tail[0] > 50:
        extra[f"step_s_p{tail[0]:g}"] = tail[1]
    for key in ("cv_s", "earlydetect_s"):
        if key in results[0]:
            extra[key] = statistics.median(r[key] for r in results)
    extra.update(run.final.result)
    for key in ("cv_macro_f1", "detect_macro_f1"):
        if key in results[-1]:
            extra[key] = results[-1][key]
    extra["fail_ratio"] = run.session.failed / run.session.attempted
    return metrics, extra


def traced_metrics(run: Run) -> tuple[dict, dict, dict]:
    table, counters = combine([run.traced_setup.probe, run.final.probe], [p.probe for p in run.traced_passes])
    every = per_layer_metrics(table, counters)
    metrics = {name: every[name] for name in PER_LAYER}
    untraced = statistics.median(p.wall for p in run.passes[1:])
    traced = statistics.median(p.wall for p in run.traced_passes)
    extra = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "tracing_overhead_s": traced - untraced,
        "traced_passes": len(run.traced_passes),
    }
    extra.update({name: every[name]["value"] for name in every if name not in PER_LAYER})
    return metrics, extra, table


# -- run record -------------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, when it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=True).stdout

    return {"sha": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip())}


def run_record(run: Run) -> dict:
    import numpy as np

    phases = run.setups + run.passes + [run.traced_setup, run.final] + run.traced_passes
    mixing = [p.probe.counters.get("model.from_events", {}).get("mixing_bytes_max", 0) for p in phases if p and p.probe]
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "precision": "f64",
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "inputs": run.input_stats,
        "mixing_bytes_max": max(mixing, default=None),
        "artifacts": run.passes[0].hashes | {f"final/{k}": v for k, v in run.final.hashes.items()},
        "oracle": {"events": run.oracle_events, "max_abs_deviation": run.oracle_deviation},
    }


def write_spans(path: Path, run: Run) -> None:
    named = [(f"setup{i}", p) for i, p in enumerate(run.setups)] + [(f"pass{i}", p) for i, p in enumerate(run.passes)]
    if run.traced_setup:
        named.append(("traced_setup", run.traced_setup))
    named += [(f"traced_pass{i}", p) for i, p in enumerate(run.traced_passes)] + [("final", run.final)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase,index,parent,name,start,end\n")
        for label, phase in named:
            if phase.probe is None:
                continue
            for i, span in enumerate(phase.probe.spans):
                fh.write(f"{label},{i},{span.parent},{span.name},{span.start!r},{span.end!r}\n")


def report(workload, seed: int, trace: bool, metrics: dict, extra: dict) -> None:
    directions = {name: direction for name, _unit, direction in END_TO_END}
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    for name, metric in metrics.items():
        better = f"{directions[name]} is better" if name in directions else ""
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:6s} {better}")
    for name, value in extra.items():
        print(f"  {name:36s} {value:>16.6g}")


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = load_program()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from rumorgraph import cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "work" / f"{label}-pid{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    session = Session(cli.main)
    try:
        run = measure(workload, args.seed, args.seconds, trace, work, session)
    except (CommandFailed, CheckFailed) as err:
        print(f"error: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": session.attempted, "failed": session.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, extra, table = traced_metrics(run)
    else:
        metrics, extra = end_to_end(run, import_s)
        table = None
    record = run_record(run)
    record.update({"metrics": metrics, "extra": extra, "layer_table": table})
    (results / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    write_spans(results / f"{label}-spans.csv", run)

    report(workload, args.seed, trace, metrics, extra)
    print(json.dumps({"correct": True, "attempted": session.attempted, "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
