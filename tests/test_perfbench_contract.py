"""The benchmark in `perfbench/` wraps and calls `shapefuse` names from
outside the package; these checks fail in the test suite when a change
removes or renames one of them, instead of only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def test_every_span_target_resolves(spans):
    # `instrument` looks each target up in its owner's own namespace
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _name, _on_result in spans.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_reference_sample_passes_checks(workloads, tmp_path):
    generate = workloads.WORKLOADS["generate"]
    state = generate.setup(workloads.REF_SEED, tmp_path)
    sample = generate.op(state, 0)
    assert generate.check(state, sample) == []


@pytest.mark.parametrize("name", ["generate", "train", "evaluate_mc"])
def test_reference_case_matches_recording(workloads, name, tmp_path):
    # the benchmark's own output check, against perfbench/reference.json
    want = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][name]
    got = workloads.WORKLOADS[name].reference(tmp_path)
    assert workloads.compare_reference(name, got, want) == []


def test_reference_stream_matches_generate_dataset(workloads):
    # the benchmark renders its reference samples one call at a time; the
    # recording is only meaningful while `generate_dataset` gives the same
    # samples for the same model, configs, subjects and seed
    from shapefuse import synth

    samples = synth.generate_dataset(
        workloads.build_model(), synth.GenerationConfig(), synth.AugmentationConfig(),
        workloads.REF_SAMPLES // workloads.POSES_PER_SUBJECT, workloads.POSES_PER_SUBJECT,
        workloads.REF_SEED, True)
    want = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]["generate"]
    got = {"samples": [workloads.sample_summary(s) for s in samples]}
    assert workloads.compare_reference("generate", got, want) == []
