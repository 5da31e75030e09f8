"""One fresh process: import casebound from a checkout, then either write a
workload's input file or run one CLI call, and print one JSON record.

    python3 perfbench/worker.py gen ROOT SPEC_JSON    # write the input CSV
    python3 perfbench/worker.py run ROOT SPEC_JSON    # time main(argv)

The run record holds setup_s (the import of casebound.cli), wall_s (inside
main, from argument parsing to the JSON document written), CPU seconds of
the process over the same region, peak RSS, the exit code, the CLI's JSON
document, the environment, and with "trace" set the per-layer metrics and
span table of tracing.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time

# The criterion-7 two-cell population (monotone response and selection) and
# the draw of the MC design that the ar_* workloads read.
POPULATION_SEED = 20240501


def _import_casebound(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import casebound.cli
    setup_s = time.perf_counter() - start
    origin = os.path.realpath(casebound.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"casebound was imported from {origin}, not from {src}")
    return casebound.cli.main, setup_s


def _write_input(spec: dict) -> None:
    from casebound.fixtures import mc_defaults
    from casebound.model import ColumnSchema, Design, export_csv
    from casebound.oracle import random_population
    from casebound.rng import RngSpec
    from casebound.synthetic import draw_mc_sample, sample_from_population

    if spec["kind"] == "ar_cc":
        pop = random_population(RngSpec(POPULATION_SEED).derive("accept-ar-pop"),
                                n_cells=2, mtr=True, mts=True)
        data = sample_from_population(pop, Design.CASE_CONTROL, 0.5, 2400,
                                      RngSpec(spec["seed"]).derive("perfbench-ar-cc"))
        schema = ColumnSchema(y="y", t="t", x=("x1",))
    elif spec["kind"] == "ar_cp_spline":
        data = draw_mc_sample(mc_defaults(),
                              RngSpec(POPULATION_SEED).derive("mc-replicate", 0))
        schema = ColumnSchema(y="y", t="t", x=("x1", "x2", "x3", "x4", "x5"))
    else:
        raise SystemExit(f"no input for workload {spec['kind']!r}")
    export_csv(data, spec["path"], schema)


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if absent."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        get_num_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get_num_threads.argtypes = []
        get_num_threads.restype = ctypes.c_int
        return int(get_num_threads())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _run(main, spec: dict) -> dict:
    import click

    tracer = restore = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    out = io.StringIO()
    code = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                main(spec["argv"], standalone_mode=False)
            else:
                with tracer.span("cli"):
                    main(spec["argv"], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        print(f"error: {exc.format_message()}", file=sys.stderr)
        code = exc.exit_code
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if restore is not None:
            restore()
    text = out.getvalue()
    record = {"wall_s": wall_s, "cpu_s": cpu_s, "exit_code": code,
              "doc": json.loads(text) if code == 0 and text.strip() else None}
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["spans"] = tracer.table()
    return record


def main() -> None:
    mode, root, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    cli_main, setup_s = _import_casebound(root)
    if mode == "gen":
        _write_input(spec)
        record = {}
    elif mode == "run":
        record = _run(cli_main, spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
