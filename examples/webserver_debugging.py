"""Explore the instrumentation-overhead vs debugging-time tradeoff on a server.

This is the paper's uServer experiment in miniature: an event-driven HTTP
server is instrumented with each of the four methods, driven with a scripted
client workload, crashed after the workload completes, and then reproduced at
the developer site from the partial branch log.  The printout shows the
tradeoff the paper is about: the combined (dynamic+static) method keeps the
recording overhead close to the dynamic method while reproducing the execution
almost as fast as full static instrumentation.

Run with:  python examples/webserver_debugging.py
"""

from repro import (
    ConcolicBudget,
    InstrumentationMethod,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
)
from repro.workloads import userver


def main() -> None:
    config = PipelineConfig(library_functions=set(userver.LIBRARY_FUNCTIONS))
    pipeline = Pipeline.from_source(userver.SOURCE, name="userver", config=config)

    # Pre-deployment analysis uses a plain GET workload (what a developer's
    # test suite would exercise) with a bounded exploration budget.
    analysis_env = userver.saturation_workload(3)
    analysis = pipeline.analyze(analysis_env,
                                ConcolicBudget(max_iterations=12, max_seconds=15, label="HC"))
    print("analysis:", analysis.summary())

    # The field scenario: a POST request plus a GET, followed by an
    # externally-delivered crash (the paper's SEGFAULT methodology).
    field_env = userver.experiment(4)
    print(f"field workload: {field_env.name}")
    print(f"{'method':18s} {'branches':>8s} {'log bits':>8s} {'cpu %':>7s} "
          f"{'storage B':>9s}   replay")

    for method in InstrumentationMethod.paper_methods():
        plan = pipeline.make_plan(method, analysis)
        recording = pipeline.record(plan, field_env)
        report = pipeline.reproduce(recording,
                                    budget=ReplayBudget(max_runs=400, max_seconds=30))
        replay = (f"{report.replay_seconds:.1f}s / {report.runs} runs"
                  if report.reproduced else "TIMEOUT")
        print(f"{method.value:18s} {plan.instrumented_count():8d} "
              f"{len(recording.bitvector):8d} "
              f"{recording.overhead.cpu_time_percent:7.1f} "
              f"{recording.storage_bytes():9d}   {replay}")

    print("\nLower 'cpu %' means cheaper recording at the user site;")
    print("a fast, non-TIMEOUT replay means cheaper debugging at the developer site.")
    print("dynamic+static is the configuration that does well on both axes.")


if __name__ == "__main__":
    main()
