"""Reconstruct a diff execution without ever seeing the user's files.

The diff workload is input-intensive: nearly every interesting branch depends
on the contents of the two files being compared.  This example records a diff
run over two private files and then shows the replay engine reconstructing an
equivalent pair of inputs purely from the branch bitvector — the developer
never receives the original file contents.

Run with:  python examples/diff_privacy_replay.py
"""

from repro import (ConcolicBudget, InstrumentationMethod, Pipeline,
                   PipelineConfig, ReplayBudget)
from repro.workloads import diffutil


def main() -> None:
    config = PipelineConfig(
        concolic_budget=ConcolicBudget(max_iterations=4, max_seconds=8))
    pipeline = Pipeline.from_source(diffutil.SOURCE, name="diff", config=config)

    # The "private" user files.
    user_env = diffutil.custom_scenario(b"alpha\nsecret\n", b"alpha\nsecres\n",
                                        name="private-diff")
    analysis = pipeline.analyze(diffutil.custom_scenario(b"x\n", b"y\n", name="diff-analysis"))

    plan = pipeline.make_plan(InstrumentationMethod.DYNAMIC_PLUS_STATIC, analysis)
    recording = pipeline.record(plan, user_env)
    print(f"user-site run: {recording.execution.branch_executions} branch executions, "
          f"{len(recording.bitvector)} logged bits, "
          f"{recording.storage_bytes()} bytes shipped")
    print("user output was:")
    print("    " + recording.execution.stdout.replace("\n", "\n    ").rstrip())

    report = pipeline.reproduce(recording, budget=ReplayBudget(max_runs=600, max_seconds=45))
    print("replay:", report.outcome.summary())
    if report.reproduced:
        inputs = report.outcome.found_input
        old = bytes(value for name, value in sorted(
            ((n, v) for n, v in inputs.items() if n.startswith("file__old.txt_")),
            key=lambda item: int(item[0].rsplit("_", 1)[1])))
        new = bytes(value for name, value in sorted(
            ((n, v) for n, v in inputs.items() if n.startswith("file__new.txt_")),
            key=lambda item: int(item[0].rsplit("_", 1)[1])))
        print(f"reconstructed old file bytes: {old!r}")
        print(f"reconstructed new file bytes: {new!r}")
        print("The reconstruction follows the recorded control flow; it is an input")
        print("equivalent to — but not a copy of — the user's private data.")


if __name__ == "__main__":
    main()
