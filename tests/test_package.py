import json
import math
import os
import re
import subprocess
import sys

import pytest

import ppav
from ppav import census, measures, orders, strata, weil

RECORDS = [
    weil.IsogenyClassSpec,
    orders.Lattice,
    orders.ConvenienceCertificate,
    strata.HeavyClassWitness,
    strata.FamilyReport,
    strata.StratumReport,
    census.CensusRow,
    census.CensusSummary,
    measures.MeasureSpec,
]


def test_every_export_resolves():
    assert [name for name in ppav.__all__ if not hasattr(ppav, name)] == []


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_frozen_named_tuples(record):
    values = {name: (i, name) for i, name in enumerate(record._fields)}
    one, two = record(**values), record(**values)
    assert one == two and hash(one) == hash(two)
    assert one == tuple(values.values())
    assert one != record(**{**values, record._fields[0]: "other"})
    for name in record._fields:
        assert getattr(one, name) == values[name]
        with pytest.raises(AttributeError):
            setattr(one, name, None)
    # a wrapped __init__ would add a span to perfbench's trace
    assert "__init__" not in vars(record)
    assert record.__slots__ == () and not hasattr(one, "__dict__")


def test_heavy_witness_note_defaults():
    fields = strata.HeavyClassWitness._fields[:-1]
    witness = strata.HeavyClassWitness(**dict.fromkeys(fields, 0))
    assert witness.conductor_note == "conductor = 2my; certified property is m | conductor"


def test_spec_fields_are_closed_forms():
    # g = x^2 - 6x - 14: disc g = 36 + 56, N(alpha^2 - 92) = g(sqrt 92) g(-sqrt 92)
    spec = weil.isogeny_class([529, -138, 32, -6, 1], 23)
    assert spec.g == (-14, -6, 1)
    assert spec.ordinary is (math.gcd(32, 23) == 1) is True
    assert spec.discriminant_norms == (abs((92 - 14) ** 2 - 36 * 92), 36 + 56) == (2772, 92)
    assert spec.simple is (math.isqrt(92) ** 2 != 92) is True
    assert spec == weil.isogeny_class([529, -138, 32, -6, 1], 23)


# what `import ppav.cli` adds to sys.modules, and what three commands add
# after it, in a fresh interpreter
IMPORT_PROBE = """
import json, os, sys, tempfile
from contextlib import redirect_stdout

before = set(sys.modules)
import ppav.cli
after_import = set(sys.modules) - before
with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink, redirect_stdout(sink):
    codes = [
        ppav.cli.main(["analyze", "--weil", "529,-138,32,-6,1", "--q", "23", "--json"]),
        ppav.cli.main(["examples", "--family", "smallest", "--pmax", "1000"]),
        ppav.cli.main(["ec-census", "--p", "1009", "--out", os.path.join(tmp, "census.csv")]),
    ]
print(json.dumps({"import": sorted(after_import), "ops": sorted(set(sys.modules) - before),
                  "codes": codes}))
"""


def test_cli_import_leaves_out_dataclasses_inspect_and_fractions():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ppav.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-s", "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["codes"] == [0, 0, 0]
    assert "ppav.cli" in probe["import"]
    banned = {"dataclasses", "inspect", "fractions", "decimal", "__future__", "array"}
    assert banned & set(probe["import"]) == set()
    # no command pays for a module the import left out
    assert {"dataclasses", "fractions"} & set(probe["ops"]) == set()


def test_readme_python_blocks_run():
    # each ```python block of the README runs, and gives the values its comments state
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["ratio"] == 255024
    assert namespace["cert"].is_convenient is True
