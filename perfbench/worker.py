"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_TIME setup
    python3 perfbench/worker.py SPAWN_TIME run PLAN.json RESULT.json

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so `setup_s` runs from process start to `kgdelta.cli` imported.
`setup` prints the set-up time and the library versions as JSON.  `run`
writes each op's config, then calls `kgdelta.cli.main` for every op of the
plan in order, and writes the timings (and, if the plan asks, the trace)
to RESULT.json.  Output checks are the parent's job.
"""
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

from kgdelta import cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argvs = []
    for i, op in enumerate(plan["ops"]):
        out = os.path.join(plan["work_dir"], f"op{i:03d}")
        os.makedirs(out)
        cfg = out + ".cfg"
        with open(cfg, "w") as fh:
            fh.write(op["config_text"])
        argvs.append([op["cmd"], "--config", cfg, "--out", out])

    codes, errors, op_wall = [], [], []
    wall0, cpu0 = time.perf_counter(), _rusage_cpu()
    for i, (op, argv) in enumerate(zip(plan["ops"], argvs)):
        if tracer is not None:
            tracer.op, tracer.grid_n = i, op["n"]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            errors.append(None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            errors.append(f"{type(exc).__name__}: {exc}")
        op_wall.append(time.perf_counter() - t0)
        codes.append(code)
    wall = time.perf_counter() - wall0
    cpu = _rusage_cpu() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": SETUP_S, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024.0, "op_wall_s": op_wall,
              "exit_codes": codes, "errors": errors,
              "kgdelta": os.path.dirname(cli.__file__)}
    if tracer is not None:
        result["trace"] = tracer.dump()
    return result


def main() -> int:
    if sys.argv[2] == "setup":
        print(json.dumps({"setup_s": SETUP_S, "versions": versions(),
                          "kgdelta": os.path.dirname(cli.__file__)}))
        return 0
    with open(sys.argv[3]) as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(sys.argv[4], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
