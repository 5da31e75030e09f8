"""Benchmark of the casebound CLI: four workloads, one fresh worker process
per CLI call, one call at a time (a closed loop with one client).

    python3 perfbench/run.py --workload mc --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0               # every workload

With --trace 0 each call reports wall_s, setup_s, peak_rss_mb and ok_share
(1 - failed_share); the run prints their medians.  With --trace 1 traced and
untraced calls alternate and the run prints the per-layer metrics of
tracing.py.  Every call's JSON document is checked against the stored
reference (reference/<workload>.json, made by make_reference.py) to 1e-10.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE_DIR = HERE / "reference"

# --seed n runs the inputs of reference seed n mod REFERENCE_SEEDS.
REFERENCE_SEEDS = 32
MIN_CALLS = 3
WORKER_TIMEOUT_S = 150
RUN_DEADLINE_S = 165

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_share", "share"))
# Printed with the end-to-end metrics but not published: the times as read
# off the clock, and the probe time that scales them.
RAW = (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("probe_s", "s"))

# The speed probe: one pass every PROBE_INTERVAL_S while a worker runs, and
# the mean CPU seconds a pass took while calls ran on a 2-core x86 reference box.
PROBE_INTERVAL_S = 0.5
PROBE_REF_S = 0.018


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]    # CLI arguments; {seed} and {input} are filled in
    input_kind: str | None   # CSV the worker writes before timing, if any
    nominal_s: float         # one worker (import + call) on a 2-core x86 box

    def cli_argv(self, seed: int, input_path: str | None) -> list[str]:
        return [a.format(seed=seed, input=input_path) for a in self.argv]


_AR = ("ar", "--input", "{input}", "--y-col", "y", "--t-col", "t")

WORKLOADS = {
    "mc": Workload(("mc", "--seed", "{seed}", "--replications", "100",
                    "--format", "json"), None, 8.7),
    "ar_cc": Workload(_AR + ("--design", "case-control", "--x-cols", "x1",
                             "--h0", "0.5", "--pbar", "0.6", "--B", "200",
                             "--seed", "{seed}", "--format", "json"), "ar_cc", 4.0),
    "ar_cp_spline": Workload(_AR + ("--design", "case-population",
                                    "--x-cols", "x1,x2,x3,x4,x5",
                                    "--retro-basis", "spline3,linear,linear,linear,linear",
                                    "--pbar", "0.15", "--B", "500",
                                    "--seed", "{seed}", "--format", "json"),
                             "ar_cp_spline", 5.0),
    "oracle": Workload(("oracle", "--seed", "{seed}", "--populations", "100",
                        "--format", "json"), None, 3.0),
}


def _probe_pass() -> int:
    acc = 0
    table = {}
    for i in range(100_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class SpeedProbe:
    """Times a fixed pure-Python loop in a thread of the runner, once at the
    start and then every PROBE_INTERVAL_S, until the block exits.

    The throughput of a shared machine swings by more than half within
    seconds. A probe taken while a call runs sees the same swings, so scaling
    the call's time by PROBE_REF_S / mean probe time puts it at the
    reference machine speed. A pass is timed in thread CPU time, so waiting
    for a core that the call's own threads hold does not count: the probe
    reads the same whether the program uses one core or both. A pass takes
    about 4 % of one core.
    """

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            start = time.thread_time()
            _probe_pass()
            self.times.append(time.thread_time() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


class BenchError(Exception):
    """The program or the checkout cannot be benchmarked."""


def call_worker(mode: str, spec: dict) -> dict:
    """Run one worker to the end; its record, with the mean probe time."""
    with SpeedProbe() as probe:
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), mode, str(ROOT), json.dumps(spec)],
                stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} exceeded {WORKER_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["probe_s"] = sum(probe.times) / len(probe.times)
    return record


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    ref = json.loads(path.read_text())
    if ref["argv"] != list(WORKLOADS[name].argv):
        raise BenchError(f"{path.name} was made for other arguments: {ref['argv']}")
    return ref["docs"]


def check_output(record: dict, reference: dict) -> str | None:
    """None if the call succeeded and matches the reference, else why not."""
    if record["exit_code"] != 0 or record["doc"] is None:
        return f"CLI exited with code {record['exit_code']}"
    doc = record["doc"]
    if stats.failed_share(doc) != stats.failed_share(reference):
        return (f"failed_share {stats.failed_share(doc)!r} != reference "
                f"{stats.failed_share(reference)!r}")
    return stats.first_difference(doc, reference)


def import_times() -> dict:
    """Cumulative import seconds of scipy.stats and of casebound.cli (which
    imports the casebound package first), from `python -X importtime`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casebound.cli"],
                          stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("python -X importtime failed to import casebound.cli")
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(.*)$", line)
        if m:
            cumulative[m.group(2).strip()] = int(m.group(1)) / 1e6
    return {"setup.import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
            "setup.import.casebound_s": max(cumulative.get("casebound", 0.0),
                                            cumulative.get("casebound.cli", 0.0))}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def write_input(workload: Workload, input_seed: int, directory: str) -> str | None:
    """Have a worker write the workload's input CSV; its path, or None."""
    if workload.input_kind is None:
        return None
    path = os.path.join(directory, "input.csv")
    call_worker("gen", {"kind": workload.input_kind, "seed": input_seed, "path": path})
    return path


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for about `seconds` and return its samples.

    The number of calls is fixed by the run length and the workload's
    nominal cost, not by the clock, so every run of a workload takes the
    same number of samples.
    """
    if not (ROOT / "src" / "casebound" / "__init__.py").is_file():
        raise BenchError(f"no casebound sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    input_seed = seed % REFERENCE_SEEDS
    reference = load_reference(name)[str(input_seed)]
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    with scratch_dir() as workdir:
        argv = workload.cli_argv(input_seed, write_input(workload, input_seed, workdir))
        if trace:
            calls = 2 * max(2, int(seconds // (2 * workload.nominal_s)))
        else:
            calls = max(MIN_CALLS, int(seconds // workload.nominal_s))
        result = {"workload": name, "seed": seed, "input_seed": input_seed,
                  "attempted": 0, "failed": 0, "mismatch": None, "env": None,
                  "samples": {m: [] for m, _ in END_TO_END + RAW},
                  "cpu_per_wall": [], "traced_wall_s": [], "layers": [], "spans": None}
        start = time.perf_counter()
        for i in range(calls):
            traced = trace and i % 2 == 1
            result["attempted"] += 1
            record = call_worker("run", {"argv": argv, "trace": traced})
            result["env"] = result["env"] or record["env"]
            problem = check_output(record, reference)
            if problem:
                if record["exit_code"] != 0:
                    result["failed"] += 1
                result["mismatch"] = problem
                break
            scale = PROBE_REF_S / record["probe_s"]
            if traced:
                result["traced_wall_s"].append(record["wall_s"] * scale)
                result["layers"].append(record["trace"])
                result["spans"] = result["spans"] or record["spans"]
                continue
            samples = result["samples"]
            samples["wall_s"].append(record["wall_s"] * scale)
            samples["setup_s"].append(record["setup_s"] * scale)
            samples["raw_wall_s"].append(record["wall_s"])
            samples["raw_setup_s"].append(record["setup_s"])
            samples["probe_s"].append(record["probe_s"])
            samples["peak_rss_mb"].append(record["peak_rss_mb"])
            samples["ok_share"].append(1.0 - stats.failed_share(record["doc"]))
            result["cpu_per_wall"].append(record["cpu_s"] / record["wall_s"])
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (i + 1) > RUN_DEADLINE_S:
                break
        if trace and result["mismatch"] is None:
            result["imports"] = import_times()
        return result


def end_to_end_metrics(result: dict) -> dict:
    return {m: {"value": stats.median(result["samples"][m]), "unit": unit}
            for m, unit in END_TO_END}


def layer_metrics(result: dict) -> dict:
    values = {name: stats.median([layers[name] for layers in result["layers"]])
              for name in tracing.SPAN_METRICS}
    values["process.cpu_per_wall"] = stats.median(result["cpu_per_wall"])
    values.update(result["imports"])
    values["trace.overhead_s"] = (stats.median(result["traced_wall_s"])
                                  - stats.median(result["samples"]["wall_s"]))
    return {name: {"value": values[name], "unit": layer_unit(name)}
            for name in tracing.PER_LAYER}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ms_" in name:
        return "ms"
    if name == "process.cpu_per_wall":
        return "cpu_s/s"
    return "count"


def describe(values) -> str:
    """median, the tail percentile rule and the sample count."""
    tail = stats.tail_percentile(values)
    tail_text = (f"p{tail[0]:.4g} {tail[1]:.6g}" if tail
                 else f"no tail percentile below {stats.TAIL_SAMPLES + 1} samples")
    return f"median {stats.median(values):.6g}  {tail_text}  (n={len(values)})"


def print_run(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"(input seed {result['input_seed']})  calls {result['attempted']}")
    if result["mismatch"]:
        print(f"  output check FAILED: {result['mismatch']}")
        return
    for metric, unit in END_TO_END + RAW:
        print(f"  {metric:<13} {unit:<6} {describe(result['samples'][metric])}")
    docs_failed = 1.0 - stats.median(result["samples"]["ok_share"])
    print(f"  failed_share        {docs_failed:.6g}  (exact, checked against the reference)")
    if trace:
        print(f"  traced calls {len(result['layers'])}; span aggregates by (name, parent):")
        for name, parent, calls, total, self_s in result["spans"]:
            print(f"    {name:<45} <- {parent or '-':<36} calls {calls:>8}  "
                  f"total {total:9.4f}s  self {self_s:9.4f}s")
        for name, metric in layer_metrics(result).items():
            print(f"  {name:<55} {metric['value']:.6g} {metric['unit']}")


def result_line(result: dict, trace: bool) -> dict:
    """The last-line JSON object of one run."""
    correct = result["mismatch"] is None
    metrics = {}
    if correct:
        metrics = layer_metrics(result) if trace else end_to_end_metrics(result)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, trace))
            print_run(results[-1], trace)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps({**(results[0]["env"] or {}), "git_sha": git_sha(),
                               "seed": args.seed, "seconds": args.seconds}))
    lines = [result_line(r, trace) for r in results]
    final = lines[0]
    if len(lines) > 1:
        # every workload's metrics under "<workload>.<metric>"
        final = {"correct": all(line["correct"] for line in lines),
                 "attempted": sum(line["attempted"] for line in lines),
                 "failed": sum(line["failed"] for line in lines),
                 "metrics": {f"{r['workload']}.{name}": metric
                             for r, line in zip(results, lines)
                             for name, metric in line["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
