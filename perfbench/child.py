"""Fresh-interpreter measurements, started by run.py.

    child.py setup WORKLOAD SEED SCALE OUT_DIR   import, build config, warm-up call
    child.py rss   WORKLOAD SEED SCALE OUT_DIR   import, build config, one full run

The parent times ``setup`` from start to exit; the child reports the
speed probe's factor for that time (see probe.py). ``rss`` prints the peak
resident set size of this process and the sha256 of its outputs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402


def setup(workload: str, seed: int, scale: str, out_dir: Path) -> None:
    aa = workloads.import_program()
    workloads.make_inputs(aa, workload, seed, scale, out_dir / "inputs")
    smoke = workloads.make_inputs(aa, workload, seed, "smoke", out_dir / "inputs")
    workloads.run(aa, smoke, out_dir / "warmup")


def main(argv) -> int:
    mode, workload, seed, scale, out = argv
    out_dir = Path(out)
    if mode == "setup":
        probe = SpeedProbe()
        with probe.measuring():
            setup(workload, int(seed), scale, out_dir)
        print(json.dumps({"probe_factor": probe.factor()}))
        return 0
    aa = workloads.import_program()
    inputs = workloads.make_inputs(aa, workload, int(seed), scale, out_dir / "inputs")
    output = workloads.run(aa, inputs, out_dir / "run")
    print(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "files": {name: hashlib.sha256(raw).hexdigest() for name, raw in output.files.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
