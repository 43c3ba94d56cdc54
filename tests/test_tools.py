import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "report_golden" / "records.csv"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_counts_the_cells_whose_final_ar_differs(tmp_path, capsys):
    paired = load_tool("paired")
    assert paired.main([str(GOLDEN), str(GOLDEN)]) == 0
    assert capsys.readouterr().out.endswith("\n0 of 120 cells differ in final_ar\n")
    # the second record's final_ar (column 10) raised by 0.01
    lines = GOLDEN.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[9] = repr(float(cells[9]) + 0.01)
    lines[2] = ",".join(cells)
    moved = tmp_path / "records.csv"
    moved.write_text("".join(lines))
    assert paired.main([str(GOLDEN), str(moved)]) == 1
    out = capsys.readouterr().out
    assert out.endswith("\n1 of 120 cells differ in final_ar\n")
    # its group, p = 1 normal, pairs 6 graphs x 2 replicates: 0.01 / 12
    assert "| 4 | 1 | normal |" in out and "+0.000833" in out
    # a file missing a cell is not paired
    moved.write_text("".join(lines[:-1]))
    assert paired.main([str(GOLDEN), str(moved)]) == 2
