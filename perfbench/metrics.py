"""Names and units of the benchmark's workloads and metrics (stdlib only).

BENCHMARK.json lists the same names; perfbench/test_perfbench.py checks that
the two agree. Each per-layer metric is read from a traced round; the
comment after it names the end-to-end metric it should move. report_s (one
report() call on the round's records.csv) is printed but not gated: on
n16-optimize it is 4 ms of file writes, and its spread over ten seeds was
29%, more than any bound may be.
"""

WORKLOAD_NAMES = ("n4-acceptance", "n8-sweep", "n16-optimize")

# seeds 1-5 were used while the benchmark was written; claims of a gain
# should also hold on this one
HELD_OUT_SEED = 104729

END_TO_END = (
    ("setup_s", "s"),  # import, dataset build, input files
    ("run_s", "s"),  # wall time of the sweep or optimize loop, CSV writes included
    ("cpu_s", "s"),  # user+sys CPU of the round process over run_s, BLAS threads included
    ("peak_rss_mb", "MB"),
    ("mean_final_ar", "ratio"),  # mean approximation ratio over all cells
)

PER_LAYER = (
    ("simulator.vg_calls", "count"),  # run_s, all workloads
    ("simulator.vg_self_s", "s"),  # run_s, all workloads
    ("simulator.vg_us_per_call", "us"),  # run_s: dispatch cuts on n4/n8, representation on n16
    ("simulator.vg_bytes_computed", "B"),  # run_s on n16; modelled, not measured
    ("simulator.forward_us", "us"),  # run_s
    ("simulator.backward_us", "us"),  # run_s
    ("simulator.eval_calls", "count"),  # run_s on n4/n8
    ("simulator.eval_self_s", "s"),  # run_s on n4/n8
    ("optimizer.runs", "count"),
    ("optimizer.self_s", "s"),  # run_s on n4
    ("optimizer.iterations", "count"),
    ("optimizer.oracle_calls", "count"),  # run_s everywhere
    ("optimizer.calls_per_iteration", "calls/iter"),  # wasted probes
    ("optimizer.converged_frac", "frac"),  # guards mean_final_ar
    ("strategies.cells", "count"),
    ("strategies.self_s", "s"),  # run_s on n4
    ("graphs.max_cut_calls", "count"),
    ("graphs.max_cut_s", "s"),  # run_s on n4
    ("graphs.graph_id_calls", "count"),
    ("graphs.dataset_s", "s"),  # setup_s
    ("records.rows_written", "count"),
    ("records.to_row_s", "s"),  # run_s on n4
    ("records.csv_bytes", "B"),
    ("records.read_s", "s"),  # report_s (printed, not gated)
    ("harness.self_s", "s"),  # run_s on n4
    ("analysis.report_self_s", "s"),  # report_s (printed, not gated)
    ("bench.self_s", "s"),  # the benchmark's own glue inside run_s
    ("trace.run_s", "s"),
    ("trace.overhead_frac", "frac"),  # traced run_s / untraced run_s - 1
)
