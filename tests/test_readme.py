"""README's "Library example" block runs as written and gives the values its comments state."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["table"][1365] is None
    assert namespace["table"][1366] == (512, 9)
    assert math.isclose(namespace["mi_from_joint"](namespace["joint"]), 0.75 * math.log2(3) - 1, rel_tol=1e-12)
    h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert math.isclose(namespace["info"].bits, 2 * (1 - h), rel_tol=1e-12)
    assert namespace["bits"].shape == (5, 4) and not namespace["bits"].flags.writeable
    assert namespace["s"].n_samples == 100_000
    assert abs(namespace["block_entropy"](namespace["s"], 2) - 1.8113) < 0.01
