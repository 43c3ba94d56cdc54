import collections
import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from maqaoa import (
    STRATEGY_KINDS,
    Graph,
    RunConfig,
    derive_seed,
    enumerate_connected,
    load_dataset,
    normalize_angles,
    read_records,
    report,
    round_angles,
    run_experiment,
    write_edge_list,
    write_records,
)
from maqaoa.cli import main
from maqaoa.records import CSV_HEADER, ExperimentRecord, format_float

# records of `maqaoa run --dataset builtin:n4 --p 1,2 --replicates 2 --seed 1`
# and, under report/, the tables `maqaoa report` wrote for them
GOLDEN = Path(__file__).resolve().parent / "data" / "report_golden"


def rows_without_wall_time(records):
    return [r.to_row()[:-1] for r in records]


# ----- seeds -----

def test_derive_seed_is_stable_and_spread():
    a = derive_seed(0, "g4-abc", "normal", 1, 0)
    assert a == derive_seed(0, "g4-abc", "normal", 1, 0)
    others = {
        derive_seed(0, "g4-abc", "normal", 1, 1),
        derive_seed(0, "g4-abc", "normal", 2, 0),
        derive_seed(0, "g4-abc", "random_pi8_opt", 1, 0),
        derive_seed(1, "g4-abc", "normal", 1, 0),
        derive_seed(0, "g4-abd", "normal", 1, 0),
    }
    assert a not in others
    assert len(others) == 5
    assert 0 <= a < 1 << 63


# ----- datasets -----

def test_load_dataset_builtin():
    graphs = load_dataset("builtin:n4", 0)
    assert graphs == enumerate_connected(4)
    # the paper's dataset: every connected 8-vertex graph
    graphs = load_dataset("builtin:n8", 0)
    assert len(graphs) == 11117 and all(g.n == 8 for g in graphs)


def test_load_dataset_random_reproducible():
    a = load_dataset("random:n=7,count=4", 5)
    b = load_dataset("random:n=7,count=4", 5)
    assert a == b
    assert len(a) == 4
    explicit = load_dataset("random:n=7,count=4,seed=9", 123)
    again = load_dataset("random:n=7,count=4,seed=9", 456)
    assert explicit == again  # explicit seed overrides the master seed


def test_load_dataset_files(tmp_path, path4, triangle):
    edges = tmp_path / "set.edges"
    write_edge_list([path4, triangle], edges)
    assert load_dataset(f"edges:{edges}", 0) == [path4, triangle]
    g6 = tmp_path / "set.g6"
    g6.write_text("A_\nC~\n")
    loaded = load_dataset(f"g6:{g6}", 0)
    assert [g.n for g in loaded] == [2, 4]


def test_load_dataset_errors():
    bad = (
        "builtin:4", "nocolon", "mystery:x", "random:n=5", "random:n=5,count=2,k=3",
        "random:n=5,count=3,n=4",
    )
    for spec in bad:
        with pytest.raises(ValueError):
            load_dataset(spec, 0)
    with pytest.raises(ValueError, match="'n' given twice"):
        load_dataset("random:n=5,count=3,n=4", 0)
    with pytest.raises(FileNotFoundError):
        load_dataset("g6:/nonexistent/file.g6", 0)


# ----- run config -----

def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", p_values=())
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", p_values=(0,))
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", p_values=(1, 1))
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", strategies=("bogus",))
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", strategies=("rounded_no_opt",))
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", replicates=0)
    with pytest.raises(ValueError):
        RunConfig(dataset="builtin:n3", threads=0)


# ----- experiment runs -----

def test_run_rejects_isomorphic_dataset_graphs(tmp_path):
    # two labelings of the 3-vertex path share one graph id, so their cells
    # would repeat under identical seeds
    a = Graph(3, ((0, 1), (1, 2)))
    b = Graph(3, ((0, 2), (1, 2)))
    edges = tmp_path / "paths.edges"
    write_edge_list([a, b], edges)
    out = tmp_path / "out"
    config = RunConfig(dataset=f"edges:{edges}", p_values=(1,), out_dir=str(out))
    with pytest.raises(ValueError, match=a.id):
        run_experiment(config)
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_counts_and_order(threads):
    # p values out of order: records still come in ascending p
    config = RunConfig(
        dataset="builtin:n4", p_values=(3, 1, 2), replicates=2, seed=1,
        threads=threads,
    )
    records = run_experiment(config)
    assert len(records) == 6 * 3 * 5 * 2
    # graphs in id order, then (p, strategy rank, replicate) inside a graph
    keys = [
        (r.graph_id, r.p, STRATEGY_KINDS.index(r.strategy), r.replicate)
        for r in records
    ]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # each rounded_no_opt record rounds the normal record of its own
    # (graph, p, replicate)
    normal = {
        (r.graph_id, r.p, r.replicate): r for r in records if r.strategy == "normal"
    }
    rounded = [r for r in records if r.strategy == "rounded_no_opt"]
    assert len(rounded) == len(normal) == 6 * 3 * 2
    for r in rounded:
        prior = normal[r.graph_id, r.p, r.replicate]
        expected = normalize_angles(round_angles(prior.angle_vector())).flatten()
        assert r.final_angles == tuple(expected)


def test_run_is_deterministic_modulo_wall_time():
    config = RunConfig(
        dataset="builtin:n3", p_values=(1, 2), strategies=("normal", "rounded_no_opt"),
        replicates=2, seed=3,
    )
    a = run_experiment(config)
    b = run_experiment(config)
    assert rows_without_wall_time(a) == rows_without_wall_time(b)


def test_run_reproduces_the_golden_records():
    """The committed run, again: ids, seeds, strategies and `converged`
    exactly, the two ratios to 1e-9. The angles and the two counts are left
    out, since their low digits follow the BLAS build's rounding."""
    records = run_experiment(RunConfig("builtin:n4", p_values=(1, 2), replicates=2, seed=1))
    with open(GOLDEN / "records.csv", newline="") as f:
        expected = list(csv.DictReader(f))
    assert len(records) == len(expected)
    for record, want in zip(records, expected):
        got = dict(zip(CSV_HEADER, record.to_row()))
        for name in ("graph_id", "n", "edge_count", "edges", "p", "strategy", "replicate",
                     "seed", "converged"):
            assert got[name] == want[name], (name, want)
        for name in ("initial_ar", "final_ar"):
            assert abs(float(got[name]) - float(want[name])) <= 1e-9, (name, want)


def test_normal_p3_saturates_four_vertex_graphs():
    config = RunConfig(
        dataset="builtin:n4", p_values=(3,), strategies=("normal",), seed=0
    )
    records = run_experiment(config)
    assert len(records) == 6
    for r in records:
        assert abs(r.final_ar - 1.0) < 5e-4


def test_optimizing_strategy_never_beats_its_start_backwards():
    config = RunConfig(
        dataset="builtin:n3", p_values=(1,), strategies=("random_pi8_opt",), seed=4
    )
    for r in run_experiment(config):
        assert r.final_ar >= r.initial_ar - 1e-12


def test_threads_do_not_change_results():
    config = RunConfig(
        dataset="builtin:n3", p_values=(1,), strategies=("normal",), seed=5
    )
    serial = run_experiment(config)
    parallel = run_experiment(
        RunConfig(
            dataset="builtin:n3", p_values=(1,), strategies=("normal",),
            seed=5, threads=2,
        )
    )
    assert rows_without_wall_time(serial) == rows_without_wall_time(parallel)


def test_run_streams_records_csv(tmp_path):
    out = tmp_path / "run"
    config = RunConfig(
        dataset="builtin:n3", p_values=(1,), strategies=("normal",),
        seed=6, out_dir=str(out),
    )
    records = run_experiment(config)
    stored = read_records(out / "records.csv")
    assert rows_without_wall_time(stored) == rows_without_wall_time(records)


def test_parallel_run_writes_the_serial_records_csv(tmp_path):
    def stored(threads):
        out = tmp_path / f"threads{threads}"
        run_experiment(
            RunConfig(
                dataset="builtin:n4", p_values=(1,), strategies=("normal",),
                seed=6, out_dir=str(out), threads=threads,
            )
        )
        return read_records(out / "records.csv")

    assert rows_without_wall_time(stored(2)) == rows_without_wall_time(stored(1))


# ----- persistence -----

def test_records_roundtrip(tmp_path):
    config = RunConfig(dataset="builtin:n3", p_values=(1,), seed=7)
    records = run_experiment(config)
    path = tmp_path / "records.csv"
    write_records(records, path)
    loaded = read_records(path)
    assert [r.to_row() for r in loaded] == [r.to_row() for r in records]
    assert loaded[0].edges == records[0].edges
    np.testing.assert_allclose(
        loaded[0].final_angles, records[0].final_angles, rtol=1e-11
    )


def test_read_records_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records(path)


def test_read_records_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(ValueError):
        read_records(path)


def test_read_records_rejects_unknown_strategy(tmp_path):
    """An unknown strategy, and every cell `report` would misread, is
    rejected with the file and line of the bad record, before `report`
    writes anything; `report` also refuses a repeated cell."""
    config = RunConfig(
        dataset="builtin:n3", p_values=(1,), strategies=("max_degree_zero_no_opt",)
    )
    first, second = run_experiment(config)
    good = second.to_row()
    angles = good[10].split(";")
    bad_rows = {
        "unknown strategy 'bogus'": {5: "bogus"},
        "converged must be 'true' or 'false', got 'True'": {13: "True"},
        "edge_count 4 != 3 listed edges": {2: str(second.edge_count + 1)},
        "expected 6 final angles for p=1, 3 edges, 3 vertices; got 5":
            {10: good[10].rsplit(";", 1)[0]},
        "edge (1, 7) out of range for n=3": {3: "0-1;0-2;1-7"},
        "edges must be sorted pairs u-v with u < v": {3: "0-1;0-2;2-1"},
        "p must be >= 1, got 0": {4: "0", 10: ""},
        "final_ar must be finite, got nan": {9: "nan"},
        "final angles must be finite": {10: ";".join(["nan", *angles[1:]])},
    }
    assert good[3] == "0-1;0-2;1-2"
    for message, cells in bad_rows.items():
        row = [cells.get(i, cell) for i, cell in enumerate(good)]
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows([CSV_HEADER, first.to_row(), row])
        # the header is line 1, so the bad record sits on line 3
        pattern = rf"records\.csv, line 3: {re.escape(message)}$"
        with pytest.raises(ValueError, match=pattern):
            read_records(path)
        with pytest.raises(ValueError, match=pattern):
            report(path, tmp_path / "report")
        assert not (tmp_path / "report").exists()
    # a repeated (graph_id, p, strategy, replicate) cell reads, but `report`
    # refuses it before it writes anything
    write_records([first, second, first], path)
    assert len(read_records(path)) == 3
    cell = (first.graph_id, 1, "max_degree_zero_no_opt", 0)
    with pytest.raises(ValueError, match=re.escape(f"cell {cell} appears twice")):
        report(path, tmp_path / "report")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("dataset", ["builtin:n1", "builtin:n2"])
def test_records_with_empty_cells_roundtrip_and_report(dataset, tmp_path):
    out = tmp_path / "run"
    config = RunConfig(dataset=dataset, p_values=(1, 2), seed=4, out_dir=str(out))
    rows = [r.to_row() for r in run_experiment(config)]
    assert [r.to_row() for r in read_records(out / "records.csv")] == rows
    # the one-vertex graph has no edges, so its edges cell is empty
    assert any(row[3] == "" for row in rows) == (dataset == "builtin:n1")
    files = report(out / "records.csv", tmp_path / "report")
    assert "ar_difference_summary.csv" in {f.name for f in files}


# ----- report -----

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    config = RunConfig(
        dataset="builtin:n4", p_values=(1, 2), replicates=1, seed=8,
        out_dir=str(out),
    )
    run_experiment(config)
    return out / "records.csv"


def test_report_writes_expected_files(small_run, tmp_path):
    out = tmp_path / "report"
    files = report(small_run, out)
    names = sorted(f.name for f in files)
    assert names == [
        "aggregate.csv",
        "angle_concentration.csv",
        "angle_histogram.csv",
        "ar_difference_histogram.csv",
        "ar_difference_summary.csv",
        "forest_summary.csv",
        "max_degree_zero.csv",
    ]
    aggregate = (out / "aggregate.csv").read_text().splitlines()
    assert len(aggregate) == 1 + 2 * 5  # (p, strategy) groups for n=4
    headers = {f.name: f.read_text().splitlines()[0] for f in files}
    assert headers == {
        "aggregate.csv": "n,p,strategy,mean_ar,std_ar,graph_count",
        "angle_concentration.csv": "n,p,strategy,total_angles,pi8_multiples,"
        "pi8_fraction,gamma_count,beta_count",
        "angle_histogram.csv": "n,p,strategy,bin_left,count",
        "max_degree_zero.csv": "n,p,strategy,zero_fraction",
        "forest_summary.csv": "n,p,strategy,mean_acyclic_fraction,records",
        "ar_difference_summary.csv": "n,p,comparison,pairs,mean_difference,"
        "same_ar_fraction,other_ge_base_fraction",
        "ar_difference_histogram.csv": "n,p,comparison,bin_left,count",
    }
    # float cells are written as format_float text
    with open(out / "angle_histogram.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert first["bin_left"] == format_float(-np.pi) == "-3.14159265359"
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = read_records(small_run)
    ars = [r.final_ar for r in records if (r.p, r.strategy) == (1, "normal")]
    assert rows[0]["mean_ar"] == format_float(np.mean(ars))


def test_report_without_comparisons_writes_per_strategy_files(tmp_path):
    run = tmp_path / "run"
    config = RunConfig(
        dataset="builtin:n3", p_values=(1, 2), strategies=("normal",), seed=8,
        out_dir=str(run),
    )
    run_experiment(config)
    files = report(run / "records.csv", tmp_path / "report")
    assert [f.name for f in files] == [
        "aggregate.csv",
        "angle_concentration.csv",
        "angle_histogram.csv",
        "max_degree_zero.csv",
        "forest_summary.csv",
    ]
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(
        f.name for f in files
    )


def test_report_is_deterministic(small_run, tmp_path):
    first = {f.name: f.read_bytes() for f in report(small_run, tmp_path / "r1")}
    second = {f.name: f.read_bytes() for f in report(small_run, tmp_path / "r2")}
    assert first == second


def test_report_computes_every_table_before_writing(small_run, tmp_path):
    # a normal record without its rounded_no_opt pair fails the comparison
    # tables, which come last; no output directory is left behind
    records = read_records(small_run)
    dropped = next(r for r in records if r.strategy == "rounded_no_opt")
    path = tmp_path / "records.csv"
    write_records([r for r in records if r is not dropped], path)
    with pytest.raises(ValueError, match="unpaired records"):
        report(path, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _read_table(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _parse_cell(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def test_report_matches_golden_tables(tmp_path):
    # integer and string cells match exactly, float cells to 1e-12 relative
    files = report(GOLDEN / "records.csv", tmp_path)
    expected_files = sorted((GOLDEN / "report").iterdir())
    assert sorted(f.name for f in files) == [f.name for f in expected_files]
    for expected_file in expected_files:
        expected = _read_table(expected_file)
        actual = _read_table(tmp_path / expected_file.name)
        assert actual[0] == expected[0], expected_file.name
        assert len(actual) == len(expected), expected_file.name
        for line, (want, got) in enumerate(zip(expected, actual), start=1):
            assert len(got) == len(want), (expected_file.name, line)
            for want_cell, got_cell in zip(map(_parse_cell, want), map(_parse_cell, got)):
                where = (expected_file.name, line, want_cell, got_cell)
                if isinstance(want_cell, float) or isinstance(got_cell, float):
                    assert math.isclose(want_cell, got_cell, rel_tol=1e-12), where
                else:
                    assert type(got_cell) is type(want_cell), where
                    assert got_cell == want_cell, where


def test_report_decodes_each_record_once(small_run, tmp_path, monkeypatch):
    calls = collections.Counter()

    def counted(name):
        decode = getattr(ExperimentRecord, name)

        def wrapper(record):
            cell = (record.graph_id, record.p, record.strategy, record.replicate)
            calls[name, cell] += 1
            return decode(record)

        return wrapper

    for name in ("graph", "angle_vector"):
        monkeypatch.setattr(ExperimentRecord, name, counted(name))
    report(small_run, tmp_path / "report")
    cells = [
        (r.graph_id, r.p, r.strategy, r.replicate) for r in read_records(small_run)
    ]
    assert calls == collections.Counter(
        {(name, cell): 1 for name in ("graph", "angle_vector") for cell in cells}
    )


def test_report_rejects_empty_records(tmp_path):
    empty = tmp_path / "records.csv"
    empty.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(ValueError):
        report(empty, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ----- CLI -----

def test_cli_run_and_report(tmp_path, capsys):
    out = tmp_path / "cli_run"
    code = main(
        [
            "run",
            "--dataset", "builtin:n3",
            "--p", "1",
            "--strategies", "normal,rounded_no_opt",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "wrote 4 records" in capsys.readouterr().out
    assert (out / "records.csv").exists()

    report_dir = tmp_path / "cli_report"
    code = main(
        ["report", "--records", str(out / "records.csv"), "--out", str(report_dir)]
    )
    assert code == 0
    assert (report_dir / "aggregate.csv").exists()


def test_cli_rejects_bad_dataset(tmp_path, capsys):
    code = main(["run", "--dataset", "builtin:q", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_entry_point_is_registered(capsys):
    # pyproject.toml is the source of the console_scripts metadata, so the
    # check holds with or without an install; an install must agree with it.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    from importlib.metadata import EntryPoint, PackageNotFoundError, distribution

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("maqaoa") == "maqaoa.cli:main"

    target = EntryPoint(
        name="maqaoa", value=scripts["maqaoa"], group="console_scripts"
    ).load()
    with pytest.raises(SystemExit) as exc:
        target(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: maqaoa")

    try:
        installed = distribution("maqaoa")
    except PackageNotFoundError:
        return
    registered = installed.entry_points.select(group="console_scripts", name="maqaoa")
    assert [ep.value for ep in registered] == [scripts["maqaoa"]]
