"""Command-line entry point.

Subcommands: validate (check an event file and print its statistics), train
(joint contrastive training, cross-validated or single-fit), earlydetect
(metrics at content checkpoints), export-features (2-D projection of learned
representations), and synth (generate the two-domain synthetic benchmark).

Commands that produce artifacts write them under ``--out`` together with a
``manifest.json`` listing the files and a hash of the effective config.

The same seed and config give byte-identical artifacts only on the same
numpy build and the same BLAS kernel. Kernels round some products
differently: on an AVX-512 Xeon, whose own OpenBLAS kernel is SkylakeX,
selecting the SandyBridge kernel with ``OPENBLAS_CORETYPE=SandyBridge``
changes 328 of the 571 files that ``tests/artifact_matrix.py`` writes. That
tool first writes ``blas_fingerprint.txt``, a digest of fixed matrix products
that tells such kernels apart.

Exit codes: 0 ok, 1 input or IO error, 2 config or spec error, 3 training
failed, 4 degenerate projection. Every failure prints an ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .dataio import CheckpointSpec, DatasetError, parse_events
from .embed import EmbeddingError, HashedProvider, provider_from_spec
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
from .dataio import write_events


def _write_manifest(out_dir: Path, files: list[str], cfg_record: dict) -> None:
    manifest = {
        "files": sorted(files),
        "config_hash": config_hash(cfg_record),
        "schema_version": 1,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# -- validate ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        dataset = parse_events(args.events)
    except (DatasetError, OSError) as err:
        return _fail(str(err), 1)
    events = dataset.events
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
    try:
        run = load_run_config(args.config, seed=args.seed, precision=args.precision)
    except (ConfigError, OSError) as err:
        return _fail(str(err), 2)

    out_dir = Path(args.out) if args.out else Path(run.output_dir)
    try:
        source_ds = parse_events(run.source_events)
        target_ds = parse_events(run.target_events)
        source_provider = _checked_width(provider_from_spec(run.source_embeddings), run.train.model, "source")
        target_provider = _checked_width(provider_from_spec(run.target_embeddings), run.train.model, "target")
        source = prepare_events(source_ds.events, source_provider)
        target = prepare_events(target_ds.events, target_provider)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (DatasetError, EmbeddingError, OSError) as err:
        return _fail(str(err), 1)

    try:
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
    except (DatasetError, OSError) as err:
        return _fail(str(err), 1)
    except (TrainingStepError, SimilarityError, EncodingError) as err:
        return _fail(str(err), 3)
    print(f"artifacts written to {out_dir}")
    return 0


# -- earlydetect --------------------------------------------------------------------


def _parse_checkpoints(text: str, mode: str) -> CheckpointSpec:
    values = tuple(math.inf if v.strip() == "inf" else float(v) for v in text.split(","))
    spec_mode = "elapsed_time" if mode == "time" else "post_count"
    return CheckpointSpec(mode=spec_mode, values=values)


def _checked_width(provider, cfg, role: str):
    if provider.dim != cfg.d_in:
        raise EmbeddingError(f"{role} embeddings are {provider.dim} wide but the model expects d_in={cfg.d_in}")
    return provider


def _provider_for(args, cfg):
    if args.embeddings:
        return _checked_width(provider_from_spec(args.embeddings), cfg, "event")
    return HashedProvider(dim=cfg.d_in)


def cmd_earlydetect(args) -> int:
    try:
        params, _seed = load_snapshot(args.snapshot)
        events = parse_events(args.events).events
        provider = _provider_for(args, params.config)
        spec = _parse_checkpoints(args.checkpoints, args.mode)
        prepared = prepare_events(events, provider)
    except (OSError, ValueError) as err:
        return _fail(str(err), 1)

    try:
        curve = early_detection(prepared, params, spec)
    except EncodingError as err:
        return _fail(str(err), 1)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(curve, out_dir / "early_detection.csv")
        _write_manifest(
            out_dir,
            ["early_detection.csv"],
            {"snapshot": args.snapshot, "checkpoints": args.checkpoints, "mode": args.mode},
        )
    except OSError as err:
        return _fail(str(err), 1)
    print(f"curve written to {out_dir / 'early_detection.csv'}")
    return 0


# -- export-features -----------------------------------------------------------------


def cmd_export_features(args) -> int:
    try:
        params, _seed = load_snapshot(args.snapshot)
        events = parse_events(args.events).events
        provider = _provider_for(args, params.config)
    except (OSError, ValueError) as err:
        return _fail(str(err), 1)

    try:
        _preds, reps = predict_events(events, params, provider)
        coords, explained = pca_project(reps)
    except (EmbeddingError, EncodingError) as err:
        return _fail(str(err), 1)
    except DegenerateDataError as err:
        return _fail(str(err), 4)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_features_csv(events, coords, explained, out_dir / "features.csv", out_dir / "explained_variance.json")
        _write_manifest(
            out_dir,
            ["features.csv", "explained_variance.json"],
            {"snapshot": args.snapshot, "events": args.events},
        )
    except OSError as err:
        return _fail(str(err), 1)
    print(f"features written to {out_dir / 'features.csv'}")
    return 0


# -- synth ----------------------------------------------------------------------------


def cmd_synth(args) -> int:
    try:
        spec = SynthSpec.from_file(args.spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    except (SynthSpecError, OSError) as err:
        return _fail(str(err), 2)

    out_dir = Path(args.out)
    source, target = generate(spec)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_events(source, out_dir / "source_events.jsonl")
        write_events(target, out_dir / "target_events.jsonl")
        _write_manifest(
            out_dir,
            ["source_events.jsonl", "target_events.jsonl"],
            {"synth_spec": spec.__dict__},
        )
    except OSError as err:
        return _fail(str(err), 1)
    print(f"synthetic datasets written to {out_dir}")
    return 0


# -- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorgraph",
        description="Contrastive transfer training over rumor propagation graphs",
        epilog="exit codes: 0 ok, 1 input or IO error, 2 config or spec error, "
        "3 training failed, 4 degenerate projection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an event file and print statistics")
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="run joint training per a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--precision", choices=["f32", "f64"], default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("earlydetect", help="evaluate at content checkpoints")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--checkpoints", required=True, help="comma-separated values; 'inf' allowed")
    p.add_argument("--mode", choices=["time", "count"], required=True)
    p.add_argument("--embeddings", default=None, help="path or hashed:<dim>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_earlydetect)

    p = sub.add_parser("export-features", help="export a 2-D projection of representations")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("synth", help="generate the synthetic two-domain benchmark")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
