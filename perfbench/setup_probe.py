"""One set-up sample in a fresh interpreter: ``setup_probe.py <workload> <seed>``.

Times the import of the workload's hwmlab modules, input generation and the
plan/model build, then takes a reference sample (after the timed phases, so
the reference's own numpy import is not counted).  Prints one JSON line.
"""

import json
import sys
import time
import warnings
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (the import is the timed phase)

t1 = time.perf_counter()
workload = workloads.WORKLOADS[sys.argv[1]]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    inputs = workload.inputs(int(sys.argv[2]))
    t2 = time.perf_counter()
    workload.prepare(inputs)
    t3 = time.perf_counter()

import reference  # noqa: E402

reference.spin()
after = reference.sample()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "plans_s": t3 - t2,
                  "warnings": [w.category.__name__ for w in caught], "ref_after": after.to_json()}))
