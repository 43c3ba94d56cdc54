"""README's library example runs against the package as it stands, so a
public name it uses cannot be removed without the example failing here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    final_value, iterations = lines[0].split()
    # the optimizer's final value is the expectation of its final state
    assert abs(float(final_value) - float(lines[1])) < 1e-10
    assert int(iterations) >= 1
