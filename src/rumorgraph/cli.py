"""Command-line entry point.

Subcommands: validate (check an event file and print its statistics), train
(joint contrastive training, cross-validated or single-fit), earlydetect
(metrics at content checkpoints), export-features (2-D projection of learned
representations), and synth (generate the two-domain synthetic benchmark).

The scorers, earlydetect and export-features, require ``--embeddings``: the
provider the model was trained with, a file path or ``hashed:<d_in>`` with the
snapshot's ``d_in``. Nothing picks one for them.

Commands that produce artifacts write them under ``--out`` and write
``manifest.json`` last, listing the files and a hash of the effective config;
an ``--out`` without a manifest holds an unfinished run.

The same seed and config give byte-identical artifacts only on the same
numpy build and the same BLAS kernel. Kernels round some products
differently: on an AVX-512 Xeon, whose own OpenBLAS kernel is SkylakeX,
selecting the SandyBridge kernel with ``OPENBLAS_CORETYPE=SandyBridge``
changes 337 of the 597 files that ``tests/artifact_matrix.py`` writes. That
tool first writes ``blas_fingerprint.txt``, a digest of fixed matrix products
that tells such kernels apart.

Exit codes: 0 ok, 1 input or IO error, 2 config or spec error, 3 training
failed or could not allocate its arrays, 4 degenerate projection. Each
command is straight-line code; ``main`` prints the error it raises as an
``error:`` line and returns the code of the first ``(error types, code)``
pair in its table that the error matches, and lets any other propagate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .dataio import CheckpointSpec, DatasetError, parse_events, write_events
from .embed import EmbeddingError, provider_from_spec
from .evalkit import (
    DegenerateDataError,
    pca_project,
    predict_events,
    write_curve_csv,
    write_features_csv,
)
from .model import EncodingError, load_snapshot, save_snapshot
from .numcore import TrainingStepError
from .objectives import SimilarityError
from .runconfig import ConfigError, config_hash, load_run_config
from .synth import SynthSpec, SynthSpecError, generate
from .trainer import cross_validate, early_detection, fit, prepare_events


def _write_manifest(out_dir: Path, files: list[str], cfg_record: dict) -> None:
    manifest = {
        "files": sorted(files),
        "config_hash": config_hash(cfg_record),
        "schema_version": 1,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- validate ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    events = parse_events(args.events).events
    rumors = sum(1 for e in events if e.label == "rumor")
    stats = {
        "events": len(events),
        "tree_nodes": sum(e.node_count for e in events),
        "rumors": rumors,
        "non_rumors": len(events) - rumors,
        "avg_depth": sum(e.depth() for e in events) / len(events),
    }
    for key, value in stats.items():
        print(f"{key}: {value}")
    return 0


# -- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    out_dir = Path(args.out) if args.out else Path(run.output_dir)
    source_ds = parse_events(run.source_events)
    target_ds = parse_events(run.target_events)
    # one provider per distinct spec: two roles that name one file decode and hold it once
    specs = dict.fromkeys((run.source_embeddings, run.target_embeddings))
    providers = {spec: provider_from_spec(spec, run.train.model.d_in) for spec in specs}
    source = prepare_events(source_ds.events, providers[run.source_embeddings])
    target = prepare_events(target_ds.events, providers[run.target_embeddings])
    del providers
    out_dir.mkdir(parents=True, exist_ok=True)

    if run.protocol_mode == "cv":
        metrics = asdict(cross_validate(source, target, run.train, k=run.folds, out_dir=out_dir))
        files = metrics.pop("files")
    else:
        log_name = "train_log.jsonl"
        result = fit(source, target, run.train, log_path=out_dir / log_name)
        save_snapshot(result.params, run.train.seed, out_dir / "model.snapshot")
        files = ["model.snapshot", log_name]
        # with no epoch run there is no best score, and -inf is not JSON
        metrics = {"best_score": result.best_score if result.history else None, "history": result.history}
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_manifest(out_dir, [*files, "metrics.json"], run.raw)
    print(f"artifacts written to {out_dir}")
    return 0


# -- earlydetect --------------------------------------------------------------------


def _parse_checkpoints(text: str, mode: str) -> CheckpointSpec:
    values = tuple(float(v) for v in text.split(","))
    spec_mode = "elapsed_time" if mode == "time" else "post_count"
    return CheckpointSpec(mode=spec_mode, values=values)


def cmd_earlydetect(args) -> int:
    params, _seed = load_snapshot(args.snapshot)
    events = parse_events(args.events).events
    provider = provider_from_spec(args.embeddings, params.config.d_in)
    spec = _parse_checkpoints(args.checkpoints, args.mode)
    metrics = early_detection(prepare_events(events, provider), params, spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_curve_csv(spec.values, metrics, out_dir / "early_detection.csv")
    _write_manifest(
        out_dir,
        ["early_detection.csv"],
        {k: getattr(args, k) for k in ("snapshot", "events", "embeddings", "checkpoints", "mode")},
    )
    print(f"curve written to {out_dir / 'early_detection.csv'}")
    return 0


# -- export-features -----------------------------------------------------------------


def cmd_export_features(args) -> int:
    params, _seed = load_snapshot(args.snapshot)
    events = parse_events(args.events).events
    provider = provider_from_spec(args.embeddings, params.config.d_in)
    _preds, reps = predict_events(events, params, provider)
    coords, explained = pca_project(reps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features_csv(events, coords, explained, out_dir / "features.csv", out_dir / "explained_variance.json")
    _write_manifest(
        out_dir,
        ["features.csv", "explained_variance.json"],
        {"snapshot": args.snapshot, "events": args.events, "embeddings": args.embeddings},
    )
    print(f"features written to {out_dir / 'features.csv'}")
    return 0


# -- synth ----------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec)
    out_dir = Path(args.out)
    source, target = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events(source, out_dir / "source_events.jsonl")
    write_events(target, out_dir / "target_events.jsonl")
    _write_manifest(
        out_dir,
        ["source_events.jsonl", "target_events.jsonl"],
        {"synth_spec": spec.__dict__},
    )
    print(f"synthetic datasets written to {out_dir}")
    return 0


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorgraph",
        description="Contrastive transfer training over rumor propagation graphs",
        epilog="earlydetect and export-features require --embeddings, the embeddings the model was trained on; "
        "exit codes: 0 ok, 1 input or IO error, 2 config or spec error, 3 training failed, 4 degenerate projection "
        "(train also exits 3 when it cannot allocate its arrays)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an event file and print statistics")
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_validate, errors=[((DatasetError, OSError), 1)])

    p = sub.add_parser("train", help="run joint training per a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.set_defaults(
        func=cmd_train,
        errors=[
            ((ConfigError,), 2),
            ((TrainingStepError, SimilarityError, EncodingError, MemoryError), 3),
            ((DatasetError, EmbeddingError, OSError), 1),
        ],
    )

    p = sub.add_parser("earlydetect", help="evaluate at content checkpoints")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoints", required=True, help="comma-separated values; 'inf' allowed")
    p.add_argument("--mode", choices=["time", "count"], required=True)
    p.add_argument("--embeddings", required=True, help="path or hashed:<d_in>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_earlydetect, errors=[((OSError, ValueError), 1)])

    p = sub.add_parser("export-features", help="export a 2-D projection of representations")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--embeddings", required=True, help="path or hashed:<d_in>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features, errors=[((DegenerateDataError,), 4), ((OSError, ValueError), 1)])

    p = sub.add_parser("synth", help="generate the synthetic two-domain benchmark")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, errors=[((SynthSpecError,), 2), ((OSError,), 1)])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _code in args.errors for t in types) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for types, code in args.errors if isinstance(err, types))


if __name__ == "__main__":
    sys.exit(main())
