"""The capacity table: every fixed limit is one entry of ``config.LIMITS``,
every refusal is raised by ``config.check_limit``, and the README's
table matches the code."""

import re
from pathlib import Path

import pytest

from convexitylab import CapacityError, config

SRC = Path(config.__file__).parent
README = SRC.parents[1] / "README.md"


def test_only_config_raises_capacity_errors():
    constructs = re.compile(r"(?<!class )\bCapacityError\(")
    raising = sorted(path.name for path in SRC.glob("*.py") if constructs.search(path.read_text()))
    assert raising == ["config.py"]


def test_readme_capacity_table_matches_config():
    section = README.read_text().partition("\n## Capacity\n")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| ([\d,]+) \|", section, flags=re.M)
    listed = {name: int(value.replace(",", "")) for name, value in rows}
    assert listed == {**config.LIMITS, "enumeration": config.DEFAULT_ENUMERATION_BOUND}


def test_limits_cannot_be_set():
    with pytest.raises(TypeError):
        config.LIMITS["pattern"] = 64  # type: ignore[index]


def test_check_limit_message():
    config.check_limit("pattern size", 32, "pattern")
    with pytest.raises(CapacityError, match="^pattern size 33 exceeds the pattern bound 32$"):
        config.check_limit("pattern size", 33, "pattern")
    config.check_limit("ground set size", 20, "enumeration", 20)
    with pytest.raises(CapacityError, match="^ground set size 21 exceeds the enumeration bound 20"):
        config.check_limit("ground set size", 21, "enumeration", 20)
    # a limit derived from an entry is not reported as the entry
    with pytest.raises(
        CapacityError, match=r"^depth 4 exceeds the bound 3 derived from the omega-depth bound 8$"
    ):
        config.check_limit("depth", 4, "omega-depth", 3)
