#!/usr/bin/env python3
"""Measure effective parallelization of this very machine, live.

The harness calibrates a busy-spin kernel to wall time, splits a
synthetic workload into a serial part plus equal parallel chunks,
runs the chunks in real worker processes, and reports the measured
scaling.  Each measured T(k) is printed beside the time its plan
models at the calibrated spin rate.  Everything here is honest
wall-clock measurement: expect noise, and expect oversubscription to
hurt.
"""

from alphaeff import (
    SyntheticWorkload,
    analyze,
    available_processors,
    calibrate,
    emit_report,
    run_synthetic,
    simulate,
)


def main():
    procs = available_processors()
    print(f"available processors: {procs}")

    target_s = 0.2
    units = calibrate(target_s)
    print(f"calibrated: {units} spin units ~= {target_s}s on this host\n")

    # A workload that is 80% parallelizable by construction.  On a
    # multi-core host the measured alpha_eff should land near 0.8;
    # on a single core every extra worker only adds overhead, and the
    # regime flags will say so.
    k_list = (1, 2) if procs < 4 else (1, 2, 4)
    workload = SyntheticWorkload(
        alpha_target=0.8,
        total_work=units,
        overhead_fraction=0.0,
        k_list=k_list,
        repetitions=3,
    )
    print(f"running {workload.label} at k={list(workload.k_list)}, "
          f"best of {workload.repetitions}...")
    series = run_synthetic(workload)
    for k, seconds in series.points:
        modelled = simulate(workload.plan(k), k).t_total * target_s / units
        print(f"  k={k}: {seconds:.4f}s (modelled {modelled:.4f}s)")
    print()

    report = analyze(series)
    print(emit_report(report, include_fit=report.fitted is not None))

    if procs < 2:
        print("note: this host exposes a single processor, so the workers")
        print("above were pure oversubscription; a speedup stuck near (or")
        print("below) 1 on the k=2 row is the harness being truthful.")


if __name__ == "__main__":
    main()
