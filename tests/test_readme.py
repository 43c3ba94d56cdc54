"""README's library example runs against the package as it stands, so a
public name it uses cannot be removed without the example failing here; and
the paper's table in README and in results/n8 reads results/n8's aggregate."""

import csv
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
N8 = ROOT / "results" / "n8"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    final_value, iterations = lines[0].split()
    # the optimizer's final value is the expectation of its final state
    assert abs(float(final_value) - float(lines[1])) < 1e-10
    assert int(iterations) >= 1


def test_paper_tables_match_the_aggregate():
    """Each strategy's mean to 4 decimals, and its standard error
    std_ar / sqrt(graph_count) to 4, at p = 1, 2, 3."""
    with open(N8 / "aggregate.csv", newline="") as fh:
        expected = {
            (row["strategy"], int(row["p"])): "{:.4f} ({:.4f})".format(
                float(row["mean_ar"]), float(row["std_ar"]) / math.sqrt(int(row["graph_count"]))
            )
            for row in csv.DictReader(fh)
        }
    for readme in (README, N8 / "README.md"):
        table = readme.read_text().split("| strategy | p = 1 | p = 2 | p = 3 |")[1]
        rows = re.findall(r"^\| `(\w+)`[^|]*\|(.*)\|$", table.split("\n\n")[0], re.M)
        assert [kind for kind, _ in rows] == ["normal", "random_pi8_opt", "max_degree_zero_opt"]
        for kind, cells in rows:
            shown = [cell.strip() for cell in cells.split("|")[:3]]
            assert shown == [expected[kind, p] for p in (1, 2, 3)], (readme, kind)
