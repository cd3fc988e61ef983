"""kgdelta benchmark: seeded `kg` workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload {shoot,simulate-fine,descend,track,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding `src/`).  The
program is imported from `src/`; nothing is installed.  Each workload run is
a fresh interpreter (`perfbench/worker.py`) that calls `kgdelta.cli.main`
in-process on the seed's op list, with BLAS and OpenMP limited to one
thread.  Workload runs repeat until S seconds have been measured.

--trace 0 reports the end-to-end metrics (medians over the workload runs):
  wall_s       first op's call into cli.main to the last op's artifacts written
  cpu_s        process user+sys CPU time over the same interval
  setup_s      interpreter start to kgdelta.cli imported, median over 3 fresh
               interpreters (after one untimed warm-up) and every workload
               run's interpreter
  peak_rss_mb  ru_maxrss of the workload run's process
The failure rate (failed / attempted ops) is printed and carried by the
`attempted` and `failed` fields; it is 0 when the program is correct.

--trace 1 alternates untraced and traced workload runs and reports the
per-layer metrics of `tracer.layer_metrics`, plus trace.overhead (median
traced wall_s over median untraced wall_s, minus 1).

Every op's artifacts are checked (`workloads.CHECKS`) and digested.  An op
fails if it raises, exits non-zero, fails its check, or writes artifacts
whose SHA-256 differs from an earlier run of the same op with the same
source tree in this checkout.  Results, the generated configs, digests and
an environment record go to `.perfbench/results/`; traces of traced runs go
next to them.  The last line of standard output is one JSON object.

Arrays are at most 77 KB, well inside a core's L2 cache, so no memory
bandwidth metric is reported: it would not measure the memory system.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path("perfbench")
STATE = Path(".perfbench")
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------------ helpers

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


def _worker(args: list[str], started: float) -> subprocess.CompletedProcess:
    left = DEADLINE_S - (time.monotonic() - started)
    if left < 5.0:
        raise BenchError("out of time before the next worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def source_hash() -> str:
    """SHA-256 of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*Path("src/kgdelta").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def tree_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over the relative paths and bytes of every file, and total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), size


def quantiles(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples above it."""
    xs = sorted(values)
    out = {"n": len(xs), "median": statistics.median(xs)}
    if len(xs) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(xs, n=4)
    if len(xs) > 10:
        out["tail_pct"] = 100 * (len(xs) - 10) // len(xs)
        out["tail"] = xs[len(xs) - 11]
    return out


def environment(versions: dict, src_hash: str) -> dict:
    env = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
           "cpu_model": None, "caches": [], "git_sha": None,
           "source_sha256": src_hash, "thread_env": THREAD_ENV, **versions}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            env["caches"].append({f: (index / f).read_text().strip()
                                  for f in ("level", "type", "size")})
    except OSError:
        pass
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        env["git_sha"] = proc.stdout.strip() or None
    return env


class Store:
    """Artifact digests and exact counts from earlier runs in this checkout,
    keyed by the source tree's hash."""

    def __init__(self, path: Path, src_hash: str):
        self.path = path
        data = json.loads(path.read_text()) if path.exists() else {}
        self.data = data
        self.mine = data.setdefault(src_hash, {"digests": {}, "exact": {}})

    def digest_matches(self, key: str, digest: str) -> bool:
        return self.mine["digests"].setdefault(key, digest) == digest

    def exact_matches(self, key: str, counts: dict) -> bool:
        return self.mine["exact"].setdefault(key, counts) == counts

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# -------------------------------------------------------------- a workload

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, started: float,
                 store: Store):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started, self.store = started, store
        self.work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[dict] = []
        self.setups: list[float] = []  # every worker's set-up time

    def execute(self, ops: list[dict], trace: bool, tag: str) -> dict:
        """One workload run: a fresh worker runs `ops`; then every op is checked."""
        run_dir = self.work / tag
        run_dir.mkdir(parents=True)
        plan = run_dir / "plan.json"
        plan.write_text(json.dumps({"ops": ops, "trace": trace,
                                    "work_dir": str(run_dir)}))
        result_path = run_dir / "result.json"
        _worker(["run", str(plan), str(result_path)], self.started)
        result = json.loads(result_path.read_text())
        self.setups.append(result["setup_s"])
        if Path(result["kgdelta"]).resolve() != Path("src/kgdelta").resolve():
            raise BenchError(f"imported kgdelta from {result['kgdelta']}, not src/")

        result["facts"], result["digests"], result["bytes"] = [], [], 0
        for i, op in enumerate(ops):
            out = run_dir / f"op{i:03d}"
            problems, facts = [], {}
            if result["errors"][i] is not None:
                problems.append(result["errors"][i])
            elif result["exit_codes"][i] != 0:
                problems.append(f"exit code {result['exit_codes'][i]}")
            else:
                try:
                    problems, facts = workloads.CHECKS[op["cmd"]](op, out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
            digest, size = tree_digest(out)
            if not self.store.digest_matches(op["key"], digest):
                problems.append("artifact digest differs from an earlier run")
            self.attempted += 1
            if problems:
                self.failures.append({"run": tag, "op": i, "cmd": op["cmd"],
                                      "config": op["config"], "problems": problems})
            result["facts"].append(facts)
            result["digests"].append(digest)
            result["bytes"] += size
        shutil.rmtree(run_dir)
        return result

    def ops(self) -> tuple[list[dict], list[dict]]:
        """The measured op list, and the untimed ops that prepared it."""
        if self.workload != "track":
            return workloads.GENERATORS[self.workload](self.seed), []
        shots = workloads.track_lambda_ops(self.seed)
        res = self.execute(shots, False, "lambda")
        if self.failures:
            raise BenchError(f"lambda_star shooting failed: {self.failures}")
        stars = [f["lambda_star"] for f in res["facts"]]
        return workloads.track_ops(shots, stars), shots

    def measure(self, ops: list[dict], trace: bool) -> tuple[list, list]:
        """Workload runs until about `seconds` have been measured: another
        run starts while it would end closer to `seconds` than stopping
        would.  Traced runs alternate with untraced ones when `trace` is set."""
        plain, traced = [], []
        t0 = time.monotonic()
        while True:
            begin = time.monotonic()
            plain.append(self.execute(ops, False, f"run{len(plain)}"))
            if trace:
                traced.append(self.execute(ops, True, f"traced{len(traced)}"))
            last = time.monotonic() - begin
            if time.monotonic() - t0 + last / 2 > self.seconds:
                return plain, traced


def setup_probes(started: float) -> tuple[list[float], dict]:
    _worker(["setup"], started)  # warm the file cache and bytecode
    samples, versions = [], {}
    for _ in range(SETUP_PROBES):
        info = json.loads(_worker(["setup"], started).stdout)
        samples.append(info["setup_s"])
        versions = info["versions"]
    return samples, versions


def layer_report(bench: Bench, plain: list, traced: list) -> tuple[dict, bool]:
    per_run = [tracer.layer_metrics(r["trace"], r["facts"], r["bytes"]) for r in traced]
    metrics = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        metrics[name] = values[0] if name in tracer.EXACT else statistics.median(values)
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    exact = {name: metrics[name] for name in tracer.EXACT}
    repeat = all({n: m[n] for n in tracer.EXACT} == exact for m in per_run)
    repeat = repeat and bench.store.exact_matches(f"{bench.workload}/{bench.seed}", exact)
    return metrics, repeat


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 started: float, store: Store, src_hash: str) -> dict:
    bench = Bench(workload, seed, seconds, started, store)
    bench.setups, versions = setup_probes(started)
    try:
        ops, prep = bench.ops()
        plain, traced = bench.measure(ops, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    runs = [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "op_wall_s")}
            for r in plain]
    record = {
        "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace,
        "ops": [{"cmd": op["cmd"], "config": op["config"]} for op in ops],
        "prepared_by": [{"cmd": op["cmd"], "config": op["config"]} for op in prep],
        "digests": plain[0]["digests"], "runs": runs, "setup_samples": bench.setups,
        "environment": environment(versions, src_hash),
        "attempted": bench.attempted, "failures": bench.failures,
        "stats": {
            "wall_s": quantiles([r["wall_s"] for r in plain]),
            "cpu_s": quantiles([r["cpu_s"] for r in plain]),
            "op_wall_s": quantiles([w for r in plain for w in r["op_wall_s"]]),
            "setup_s": quantiles(bench.setups),
            "peak_rss_mb": quantiles([r["peak_rss_mb"] for r in plain]),
        },
    }
    if trace:
        metrics, repeat = layer_report(bench, plain, traced)
        units = tracer.UNITS
        record["exact_counts_repeat"] = repeat
        record["traced_wall_s"] = quantiles([r["wall_s"] for r in traced])
        if not repeat:  # counted as one failed op
            bench.failures.append({"problems": ["exact counts differ between "
                                                "traced runs of this seed"]})
        trace_dir = STATE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload}-seed{seed}.json").write_text(
            json.dumps([r["trace"] for r in traced]))
    else:
        metrics = {"wall_s": record["stats"]["wall_s"]["median"],
                   "cpu_s": record["stats"]["cpu_s"]["median"],
                   "setup_s": record["stats"]["setup_s"]["median"],
                   "peak_rss_mb": record["stats"]["peak_rss_mb"]["median"]}
        units = END_TO_END
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["failed"] = len({(f.get("run"), f.get("op")) for f in bench.failures})
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    record["path"] = str(path)
    return record


def print_report(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}  seed {record['seed']}  ({len(record['ops'])} ops per run, "
          f"{len(record['runs'])} runs, trace {int(record['trace'])})")
    for name, m in record["metrics"].items():
        line = f"  {name:28s} {m['value']:>14.6g} {m['unit']}"
        st = record["stats"].get(name)
        if st is not None:
            line += f"   n={st['n']}"
            if "q1" in st:
                line += f" q1={st['q1']:.6g} q3={st['q3']:.6g}"
        print(line)
    op = record["stats"]["op_wall_s"]
    tail = f" p{op['tail_pct']}={op['tail']:.4g}" if "tail" in op else ""
    print(f"  per-op wall s: median={op['median']:.4g} q1={op.get('q1', 0):.4g} "
          f"q3={op.get('q3', 0):.4g}{tail} n={op['n']}")
    rate = record["failed"] / record["attempted"]
    print(f"  fail_rate {rate:.6g} ratio ({record['failed']} of "
          f"{record['attempted']} ops)   results: {record['path']}")
    for f in record["failures"][:5]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/kgdelta/cli.py").is_file():
        print("perfbench: run from a source checkout; src/kgdelta/cli.py is missing",
              file=sys.stderr)
        return 2
    src_hash = source_hash()
    STATE.mkdir(exist_ok=True)
    store = Store(STATE / "store.json", src_hash)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            started = time.monotonic()
            records.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), started, store, src_hash))
            print_report(records[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        store.save()

    def summary(rec: dict) -> dict:
        return {"correct": rec["failed"] == 0,
                "attempted": rec["attempted"], "failed": rec["failed"],
                "metrics": rec["metrics"]}

    if len(records) == 1:
        print(json.dumps(summary(records[0])))
    else:
        print(json.dumps({r["workload"]: summary(r) for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
