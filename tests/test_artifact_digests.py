"""Byte identity as a check: every artifact of ``tests/artifact_matrix.py`` against a committed digest list.

Artifacts are byte-identical only under the same BLAS kernel, so each list in
``tests/artifact_digests`` is named after the ``blas_fingerprint`` it was made
under. On a host whose fingerprint has no list, the test skips and names the
fingerprint; ``artifact_matrix.py``'s docstring says how to write a list.
"""

from pathlib import Path

import pytest

from tests.artifact_matrix import blas_fingerprint, digest_lines, write_matrix

DIGESTS = Path(__file__).resolve().parent / "artifact_digests"


def _by_path(lines: str) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines.splitlines())}


def test_artifacts_match_the_digest_list_of_this_blas_kernel(tmp_path):
    fingerprint = blas_fingerprint().strip()
    listed = DIGESTS / f"{fingerprint}.sha256"
    if not listed.exists():
        pytest.skip(f"no digest list for BLAS fingerprint {fingerprint} in {DIGESTS}")
    write_matrix(tmp_path)
    want, got = _by_path(listed.read_text()), _by_path(digest_lines(tmp_path))
    unlisted = sorted(set(want) ^ set(got))
    assert not unlisted, f"files written but not listed, or listed but not written: {unlisted}"
    moved = sorted(path for path in want if want[path] != got[path])
    assert not moved, f"files whose bytes moved: {moved}"
