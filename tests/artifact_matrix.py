"""Write the artifacts of every CLI command over a fixed matrix of runs into one directory.

Two checkouts write the same bytes exactly when their trees compare equal::

    PYTHONPATH=<checkout A>/src python tests/artifact_matrix.py out_a
    PYTHONPATH=<checkout B>/src python tests/artifact_matrix.py out_b
    diff -r out_a out_b

With ``--digests FILE`` it also writes one ``<sha256>  <path>`` line per file
of the tree, sorted by path, which ``sha256sum -c FILE`` checks from inside the
tree. ``tests/artifact_digests/<fingerprint>.sha256`` holds that list for each
BLAS fingerprint it was made under, and ``tests/test_artifact_digests.py``
compares a fresh tree with the list for the host's fingerprint. A change that
moves artifacts on purpose writes each list again, under the kernel it
belongs to, and says which files moved and why::

    PYTHONPATH=src python tests/artifact_matrix.py out --digests digests.sha256
    mv digests.sha256 tests/artifact_digests/$(cat out/blas_fingerprint.txt).sha256

Every command runs in this process, as ``rumorgraph.cli.main(argv)`` of the
``rumorgraph`` package this interpreter imports. Each runs inside the output
directory with relative paths, so manifests and config hashes do not depend on
where the tree lives; the working directory is restored after each command.
The matrix:

- ``synth`` of a small two-domain corpus;
- ``train`` in cv mode (3 folds) and in single mode, for each ``augment``
  section (adversarial, feature_dropout, graph_dropedge, or none, which
  selects the default), each training variant (``alpha`` 0.5, ``alpha`` 0,
  TCL off, TCL with the positive in its denominator, ``val_fraction`` 0) and
  each precision (f64, f32): 80 runs;
- ``earlydetect`` in count and in time mode, and ``export-features``, on the
  single-mode f64 snapshot without an ``augment`` section;
- precomputed embeddings, the input of real runs: an embedding file with one
  dense 16-wide vector per post of the small corpus, every entry nonzero and
  taken from a fixed formula, then a single-mode f64 ``train`` that reads it
  as both source and target embeddings, and ``earlydetect`` in count mode and
  ``export-features`` with ``--embeddings`` pointing at it;
- a single-mode ``train`` of a wide model (``d_in`` 768), then ``earlydetect``
  in count mode and ``export-features`` over a second, larger event file
  (150 events, about 3k nodes), which the scorers encode in several chunks.

Before any command runs, it writes ``blas_fingerprint.txt``: the SHA-256 of
f64 and f32 products of four fixed matrix pairs, computed with the numpy the
commands use. Artifacts are byte-identical only under the same BLAS kernel,
so when two trees differ, compare this file first. OpenBLAS picks its kernel
when numpy loads, so select one by running the whole tool under it, as in
``OPENBLAS_CORETYPE=SandyBridge python tests/artifact_matrix.py out``. On an
AVX-512 Xeon with OpenBLAS 0.3.31, the fingerprint of the default kernel
(SkylakeX) differs from that under SandyBridge. Under ``Haswell`` and
``Prescott`` it also differs between ``OPENBLAS_NUM_THREADS`` 1 and 2, so
there the thread count is part of the kernel.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np

from rumorgraph.cli import main as cli_main
from rumorgraph.dataio import parse_events

SYNTH = {"source_events": 24, "target_events": 30, "mean_replies": 6.0, "seed": 7}
MODEL = {"d_in": 16, "d_hidden": 12, "d_out": 8}
TRAINING = {"learning_rate": 0.01, "max_epochs": 3, "patience": 2, "source_batch_size": 8, "target_batch_size": 8}
AUGMENTS = {
    "adversarial": {"kind": "adversarial"},
    "feature_dropout": {"kind": "feature_dropout"},
    "graph_dropedge": {"kind": "graph_dropedge"},
    "none": None,
}
VARIANTS = {
    "alpha0.5": {"alpha": 0.5},
    "alpha0": {"alpha": 0.0},
    "tcl_off": {"tcl_enabled": False},
    "tcl_positive": {"tcl_include_positive": True},
    "val0": {"val_fraction": 0.0},
}
MODES = ("cv", "single")
PRECISIONS = ("f64", "f32")
EVENTS = ["--events", "data/target_events.jsonl", "--embeddings", "hashed:16"]
# about 3k nodes at 768 + 64 columns: several evaluation chunks at the default budget
WIDE_SYNTH = {"source_events": 4, "target_events": 150, "mean_replies": 20.0, "seed": 8}
WIDE_MODEL = {"d_in": 768, "d_hidden": 64, "d_out": 64}


def blas_fingerprint() -> str:
    """SHA-256 of f64 and f32 products of four fixed matrix pairs, one line."""
    # the inputs come from correctly rounded arithmetic alone, so only the products can differ
    digest = hashlib.sha256()
    for dtype in (np.float64, np.float32):
        for m, k, n in ((16, 16, 12), (199, 28, 8), (300, 768, 512), (1585, 640, 128)):
            a = (np.arange(m * k) * 0.6180339887498949 % 1.0 - 0.5).reshape(m, k).astype(dtype)
            b = (np.arange(k * n) * 0.7548776662466927 % 1.0 - 0.5).reshape(k, n).astype(dtype)
            digest.update((a @ b).tobytes())
    return digest.hexdigest() + "\n"


def _run_config(mode: str, augment: str, variant: str, precision: str) -> dict:
    name = f"{mode}-{augment}-{variant}-{precision}"
    record = {
        "seed": 5,
        "precision": precision,
        "paths": {
            "source_events": "data/source_events.jsonl",
            "target_events": "data/target_events.jsonl",
            "source_embeddings": "hashed:16",
            "target_embeddings": "hashed:16",
            "output_dir": f"runs/{name}",
        },
        "model": MODEL,
        "training": {**TRAINING, **VARIANTS[variant]},
        "protocol": {"mode": mode, "folds": 3},
    }
    if AUGMENTS[augment] is not None:
        record["augment"] = AUGMENTS[augment]
    return record


def _write_embeddings(out: Path, events: list[str], path: str) -> None:
    """One dense 16-wide vector per post of ``events``: entry j of the k-th post is
    ``(-1) ** j * (0.25 + frac(0.618... * (16 k + j + 1)))``, nonzero and exact in JSON."""
    posts = [post.post_id for name in events for e in parse_events(out / name).events for post in e.posts]
    width = MODEL["d_in"]
    lines = [json.dumps({"dim": width, "count": len(posts)})]
    for k, post_id in enumerate(posts):
        vector = [(-1) ** j * (0.25 + (width * k + j + 1) * 0.6180339887498949 % 1.0) for j in range(width)]
        lines.append(json.dumps({"post_id": post_id, "vector": vector}))
    (out / path).write_text("\n".join(lines) + "\n")


def write_matrix(out: Path) -> None:
    """Run every command of the matrix, writing its artifacts under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "configs").mkdir(exist_ok=True)

    def cli(*argv: str) -> None:
        cwd = os.getcwd()
        os.chdir(out)
        try:
            code = cli_main(list(argv))
        finally:
            os.chdir(cwd)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {code}")

    (out / "blas_fingerprint.txt").write_text(blas_fingerprint())
    (out / "spec.json").write_text(json.dumps(SYNTH, sort_keys=True) + "\n")
    cli("synth", "--spec", "spec.json", "--out", "data")

    def train(record: dict) -> None:
        config = f"configs/{Path(record['paths']['output_dir']).name}.json"
        (out / config).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        cli("train", "--config", config)

    for mode, augment, variant, precision in itertools.product(MODES, AUGMENTS, VARIANTS, PRECISIONS):
        train(_run_config(mode, augment, variant, precision))

    snapshot = ["--snapshot", "runs/single-none-alpha0.5-f64/model.snapshot"]
    cli("earlydetect", *snapshot, *EVENTS, "--checkpoints", "1,2,4,inf", "--mode", "count", "--out", "detect-count")
    cli("earlydetect", *snapshot, *EVENTS, "--checkpoints", "60,300,900,inf", "--mode", "time", "--out", "detect-time")
    cli("export-features", *snapshot, *EVENTS, "--out", "features")

    vectors = "data/embeddings.jsonl"
    _write_embeddings(out, ["data/source_events.jsonl", "data/target_events.jsonl"], vectors)
    record = _run_config("single", "none", "alpha0.5", "f64")
    record["paths"].update(source_embeddings=vectors, target_embeddings=vectors, output_dir="runs/precomputed")
    train(record)
    precomputed = ["--snapshot", "runs/precomputed/model.snapshot",
                   "--events", "data/target_events.jsonl", "--embeddings", vectors]
    cli("earlydetect", *precomputed, "--checkpoints", "1,2,4,inf", "--mode", "count", "--out", "detect-precomputed")
    cli("export-features", *precomputed, "--out", "features-precomputed")

    (out / "wide_spec.json").write_text(json.dumps(WIDE_SYNTH, sort_keys=True) + "\n")
    cli("synth", "--spec", "wide_spec.json", "--out", "data-wide")
    record = _run_config("single", "none", "alpha0.5", "f64")
    record["model"] = WIDE_MODEL
    record["paths"].update(source_embeddings="hashed:768", target_embeddings="hashed:768", output_dir="runs/wide")
    train(record)
    wide = ["--snapshot", "runs/wide/model.snapshot",
            "--events", "data-wide/target_events.jsonl", "--embeddings", "hashed:768"]
    cli("earlydetect", *wide, "--checkpoints", "1,4,16,inf", "--mode", "count", "--out", "detect-wide")
    cli("export-features", *wide, "--out", "features-wide")


def digest_lines(out: Path) -> str:
    """``<sha256>  <path>`` per file under ``out``, sorted by its path relative to ``out``: ``sha256sum -c`` input."""
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return "".join(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n" for name in files)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write into; created if missing")
    parser.add_argument("--digests", help="also write the sha256sum list of the tree to this file")
    args = parser.parse_args()
    out = Path(args.out)
    write_matrix(out)
    if args.digests:
        Path(args.digests).write_text(digest_lines(out))


if __name__ == "__main__":
    main()
