"""The benchmark's seeded operation generators, ``perfbench/workloads.py``,
loaded for the tests without editing or installing ``perfbench``."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)
