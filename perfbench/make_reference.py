"""Regenerate perfbench/reference_run_presets.json from the current source tree.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs ``hkbnet run`` once per preset of the run_presets workload and stores
the sync_report.csv and bounds.csv values and the sha256 of every CSV.  The
committed file holds the values of the build that defined the benchmark;
regenerate it only when a change to those values has been explained.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from hkbnet import cli

from workloads import PRESET_CSVS, REFERENCE_PATH, RUN_PRESETS, preset_values


def main() -> int:
    reference = {}
    workdir = Path.cwd() / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for preset in RUN_PRESETS:
            out = Path(tmp) / preset
            code = cli.main(["run", preset, "--out-dir", str(out)])
            if code != 0:
                print(f"error: {preset} exited with status {code}", file=sys.stderr)
                return 1
            reference[preset] = {
                "values": preset_values(out),
                "sha256": {
                    name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PRESET_CSVS
                },
            }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
