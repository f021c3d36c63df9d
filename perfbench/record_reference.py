"""Record reference.json: the CSV of every workload step at the default seed.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Refuses to record a step that fails its acceptance gate. The benchmark
compares default-seed CSVs against this file (see gates.py).
"""

import json
import shutil
import sys

import gates
import run
import workloads


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from gdnls import cli

    out_dir = run.WORK / "reference"
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            steps = workloads.plan(name, workloads.DEFAULT_SEED)
            configs = [cli.validate_config(s.experiment, s.raw) for s in steps]
            it = run.run_iteration(cli, configs, out_dir)
            failures, _ = run.gate_iteration(steps, configs, it, out_dir, None)
            if failures:
                sys.exit(f"{name}: not recording failed steps {failures}")
            reference[name] = {
                s.label: gates.parse_csv((out_dir / f"{s.label}.csv").read_text())
                for s in steps
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    gates.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
