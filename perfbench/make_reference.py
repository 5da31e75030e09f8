"""Write the reference documents the benchmark checks every call against.

    python3 perfbench/make_reference.py                 # every workload
    python3 perfbench/make_reference.py --workload mc   # one workload

For each workload and each input seed 0 .. REFERENCE_SEEDS-1 this runs the
CLI once, exactly as a benchmark run does, and stores its JSON document in
reference/<workload>.json together with the argument template it used.
Regenerate only when a change is meant to alter the program's outputs.
"""

from __future__ import annotations

import argparse
import json

import run


def make(name: str) -> dict:
    workload = run.WORKLOADS[name]
    docs = {}
    with run.scratch_dir() as workdir:
        for seed in range(run.REFERENCE_SEEDS):
            input_path = run.write_input(workload, seed, workdir)
            record = run.call_worker("run", {"argv": workload.cli_argv(seed, input_path),
                                             "trace": False})
            if record["exit_code"] != 0:
                raise run.BenchError(f"{name} seed {seed}: exit code {record['exit_code']}")
            docs[str(seed)] = record["doc"]
            print(f"{name} seed {seed}: failed_share "
                  f"{run.stats.failed_share(record['doc']):.6g}", flush=True)
    return {"argv": list(workload.argv), "docs": docs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(run.WORKLOADS))
    args = parser.parse_args()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else list(run.WORKLOADS):
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(make(name), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
