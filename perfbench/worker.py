"""One benchmark repetition in a fresh process: import, parse, run `qgsync.cli.main` once.

Usage: python3 perfbench/worker.py SRC COMMAND CONFIG OUTDIR RESULT TRACE

SRC is the directory holding the `qgsync` package, TRACE is 0 or 1.  The
parent process passes its CLOCK_MONOTONIC reading at spawn time in the
environment variable PERFBENCH_T0, so set-up time covers interpreter start.
The result (timings, exit code, peak memory and, when traced, the span
summary) is written as JSON to RESULT.
"""

import json
import os
import resource
import sys
import time
import warnings


def main(argv) -> int:
    src, command, config_path, outdir, result_path, trace = argv
    sys.path.insert(0, src)
    import qgsync
    from qgsync import analysis, cli, config, dynamics, fields, noise, operators

    config.parse_config(config_path)
    t_ready = time.perf_counter()
    setup_s = t_ready - float(os.environ["PERFBENCH_T0"])

    tracer = None
    if trace == "1":
        import spans

        modules = {
            "fields": fields,
            "operators": operators,
            "noise": noise,
            "dynamics": dynamics,
            "analysis": analysis,
            "config": config,
            "cli": cli,
            "qgsync": qgsync,
        }
        tracer = spans.Tracer()
        tracer.install(modules)

    # an under-resolved explicit step is a failed run, not a warning
    warnings.simplefilter("error", dynamics.CFLWarning)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.main([command, "--config", config_path, "--output", outdir])
    finally:
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.restore()

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        keys, key_idx, parent, start, end = tracer.spans()
        summary = spans.summarize(keys, key_idx, parent, start, end)
        summary["normals_drawn"] = tracer.normals_drawn
        step = keys.index("dynamics.step_imex") if "dynamics.step_imex" in keys else -1
        summary["step_ms"] = ((end - start)[key_idx == step] * 1e3).tolist()
        result["trace"] = summary
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
