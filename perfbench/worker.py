"""One benchmark round in a fresh interpreter, as a user's run would be.

Usage: python3 perfbench/worker.py '<json>' where the JSON object holds
workload, seed, out_dir, mode ("setup" or "round") and trace (0 or 1).

Set-up (imports, dataset build, input files) is timed from this module's
first line. A round then runs the workload once, times report() on its
records and checks the outputs; when traced it also keeps per-layer spans
and times the simulator's forward and backward passes. The result is the
last line of stdout, one JSON object; the process exits non-zero only when
it could not run.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REPORT_MIN_CALLS = 3
REPORT_MIN_SECONDS = 1.0
MICRO_MIN_CALLS = 3
MICRO_MIN_SECONDS = 0.3


def _check_source(checkout: Path) -> None:
    import maqaoa

    src = (checkout / "src").resolve()
    if src not in Path(maqaoa.__file__).resolve().parents:
        raise RuntimeError(f"imported maqaoa from {maqaoa.__file__}, not from {src}")


def _provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if not found."""
    import ctypes

    import numpy as np

    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _no_span(name):
    return contextlib.nullcontext()


def _tracing(enabled: bool):
    """(context manager that patches the package while open, span factory)."""
    if not enabled:
        return contextlib.nullcontext(), _no_span
    from tracer import Tracer

    tracer = Tracer()
    return tracer, tracer.span


def _repeat(fn, min_calls: int, min_seconds: float) -> list[float]:
    """Per-call wall seconds of fn, called until both minimums are met."""
    samples: list[float] = []
    begin = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - begin < min_seconds:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return samples


def _micro_timings(inputs) -> dict:
    """run_circuit and value+gradient per call at the workload's n and largest p."""
    import numpy as np

    from maqaoa import simulator

    g = inputs.graphs[-1]
    p = max(inputs.p_values)
    rng = np.random.default_rng(0)
    angles = simulator.AngleVector(
        rng.uniform(-np.pi, np.pi, (p, g.edge_count)),
        rng.uniform(-np.pi, np.pi, (p, g.n)),
    )
    simulator.expectation_and_gradient(g, angles)  # fill the per-graph tables
    forward = statistics.median(
        _repeat(lambda: simulator.run_circuit(g, angles), MICRO_MIN_CALLS, MICRO_MIN_SECONDS)
    )
    full = statistics.median(
        _repeat(
            lambda: simulator.expectation_and_gradient(g, angles),
            MICRO_MIN_CALLS,
            MICRO_MIN_SECONDS,
        )
    )
    return {"forward_us": forward * 1e6, "backward_us": (full - forward) * 1e6}


def main(spec: dict) -> dict:
    _check_source(Path.cwd())
    import workloads
    from maqaoa import harness

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = spec["workload"]
    t = time.perf_counter()
    inputs = workloads.build_inputs(workload, spec["seed"])
    dataset_s = time.perf_counter() - t
    workloads.write_inputs(workload, inputs, out_dir)
    result = {"out_dir": str(out_dir), "setup_s": time.perf_counter() - T0, "dataset_s": dataset_s}
    if spec["mode"] == "setup":
        result["provenance"] = _provenance()
        return result

    round_tracer, span = _tracing(spec["trace"])
    wall = time.perf_counter()
    cpu = time.process_time()
    with round_tracer:
        with span("bench.round"):
            records, gaps = workloads.run_round(workload, inputs, out_dir, span)
    result["run_s"] = time.perf_counter() - wall
    result["cpu_s"] = time.process_time() - cpu

    csv_path = out_dir / "records.csv"
    report_tracer, report_span = _tracing(spec["trace"])

    def one_report():
        with report_span("analysis.report"):
            harness.report(csv_path, out_dir / "report")

    with report_tracer:
        result["report_s"] = _repeat(one_report, REPORT_MIN_CALLS, REPORT_MIN_SECONDS)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_cells, failures = workloads.check_round(workload, records, gaps, inputs, csv_path)
    optimizing = [r for r in records if r.strategy in workloads.OPTIMIZING]
    result.update(
        cells=len(records),
        failed_cells=failed_cells,
        failures=failures[:20],
        optimizing=len(optimizing),
        converged=sum(r.converged for r in optimizing),
        oracle_calls=sum(r.function_evaluations for r in optimizing),
        iterations=sum(r.iterations for r in records),
        mean_final_ar=statistics.fmean(r.final_ar for r in records),
        vg_bytes_computed=workloads.vg_bytes_computed(records),
        csv_bytes=csv_path.stat().st_size,
    )
    if spec["trace"]:
        result.update(
            spans=round_tracer.totals(),
            span_root_s=round_tracer.root_seconds(),
            report_spans=report_tracer.totals(),
            micro=_micro_timings(inputs),
        )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
