"""Record the reference values the benchmark's output checks compare with.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json. The reference cases are seed-independent
(seed `workloads.REF_SEED`) and computed by the same workload code the
benchmark runs; the `generate` case is also checked against
`synth.generate_dataset`, which the benchmark's per-sample stream must equal.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    import report
    import workloads
    from shapefuse import synth

    workdir = HERE / "results" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values = {name: w.reference(workdir) for name, w in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    model = workloads.build_model()
    expected = synth.generate_dataset(
        model, synth.GenerationConfig(), synth.AugmentationConfig(),
        workloads.REF_SAMPLES // workloads.POSES_PER_SUBJECT, workloads.POSES_PER_SUBJECT,
        workloads.REF_SEED, True)
    if [workloads.sample_summary(s) for s in expected] != values["generate"]["samples"]:
        print("per-sample stream differs from synth.generate_dataset", file=sys.stderr)
        return 1

    args = type("Args", (), {"workload": None, "seed": workloads.REF_SEED, "seconds": None,
                             "trace": None, "smoke": None})
    payload = {"recorded_with": report.environment(HERE.parent, args), "workloads": values}
    report.write_json(HERE / "reference.json", payload)
    events = [s["events"] for s in values["generate"]["samples"]]
    print(json.dumps(values, indent=1)[:2000])
    print("part occlusions in the reference samples:", sum(e["part_occluded"] for e in events))
    return 0


if __name__ == "__main__":
    sys.exit(main())
