"""The loss-term, tape and kernel tests rerun under a second OpenBLAS kernel.

A DYNAMIC_ARCH OpenBLAS picks its kernel for the CPU at load time, and
``OPENBLAS_CORETYPE`` overrides the pick. Kernels round some products
differently, so a bound or a bitwise oracle check that holds under one
kernel can fail under another. Rerunning ``test_objectives.py``,
``test_tensor.py`` with ``test_kernels.py`` and ``test_propagation.py``, and
the whole-step oracle check of ``test_trainer.py``, in a child process under
the SandyBridge kernel keeps the bounds, gradient checks and oracle checks of
the one-node loss terms, the tape primitives, the fused kernels, the neighbor
operator and a training step that drops values and forms ln1's output again
honest on other hosts.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict form, or without a BLAS entry
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


SANDYBRIDGE_ONLY = pytest.mark.skipif(
    not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects nothing"
)


def _assert_pass_under_sandybridge(*test_files: str) -> str:
    """Run ``test_files`` in a child pytest under the SandyBridge kernel; return its output, skip reasons included."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="SandyBridge", PYTHONPATH=os.pathsep.join(p for p in paths if p))
    command = [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider", *test_files]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    return result.stdout


@SANDYBRIDGE_ONLY
def test_objectives_pass_under_the_sandybridge_kernel():
    _assert_pass_under_sandybridge("tests/test_objectives.py")


@SANDYBRIDGE_ONLY
def test_tensor_and_kernels_pass_under_the_sandybridge_kernel():
    _assert_pass_under_sandybridge("tests/test_tensor.py", "tests/test_kernels.py", "tests/test_propagation.py")


@SANDYBRIDGE_ONLY
def test_training_steps_match_the_oracle_under_the_sandybridge_kernel():
    _assert_pass_under_sandybridge("tests/test_trainer.py::test_steps_match_the_oracle_kernels_bitwise")


@SANDYBRIDGE_ONLY
def test_artifact_digests_pass_under_the_sandybridge_kernel():
    output = _assert_pass_under_sandybridge("tests/test_artifact_digests.py")
    skipped = [line for line in output.splitlines() if line.startswith("SKIPPED")]
    if skipped:  # this OpenBLAS's SandyBridge kernel has no list
        pytest.skip(f"the SandyBridge run skipped: {skipped[0]}")
