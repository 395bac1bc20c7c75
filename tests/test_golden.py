"""The criterion-13 outputs keep the sha256 recorded in tests/golden.json.

The hashes hold for OpenBLAS's Haswell kernels on one thread, which
tests/golden.py pins in a child process before numpy loads.
"""

import importlib.util
import json
import platform
from pathlib import Path

import pytest

GOLDEN_SCRIPT = Path(__file__).resolve().parent / "golden.py"


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _has_avx2(),
                    reason="the golden hashes pin OpenBLAS's Haswell kernels, "
                           "which need an x86-64 CPU with AVX2")
def test_criterion_13_outputs_match_golden_hashes():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    expected = json.loads(golden.GOLDEN.read_text())
    actual = golden.compute()
    moved = sorted(k for k in expected.keys() | actual.keys()
                   if expected.get(k) != actual.get(k))
    assert not moved, f"outputs differ from tests/golden.json: {moved}"
