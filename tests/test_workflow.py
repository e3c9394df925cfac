"""The CI workflow file parses as YAML and every step does something."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_loads_and_every_step_runs_or_uses():
    # a ": " inside a plain scalar, such as a step name, breaks the whole file
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step, dict) and ("run" in step or "uses" in step), step
