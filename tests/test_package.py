import json
import os
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
    # the two cached properties of IsogenyClassSpec live in its __dict__
    assert hasattr(one, "__dict__") == (record is weil.IsogenyClassSpec)


def test_heavy_witness_note_defaults():
    fields = strata.HeavyClassWitness._fields[:-1]
    witness = strata.HeavyClassWitness(**dict.fromkeys(fields, 0))
    assert witness.conductor_note == "conductor = 2my; certified property is m | conductor"


def test_spec_caches_its_properties():
    spec = weil.isogeny_class([529, -138, 32, -6, 1], 23)
    assert spec.simple and spec.discriminant_norms == spec.discriminant_norms
    assert set(vars(spec)) == {"simple", "discriminant_norms"}
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
    banned = {"dataclasses", "inspect", "fractions", "decimal", "__future__"}
    assert banned & set(probe["import"]) == set()
    # no command pays for a module the import left out
    assert {"dataclasses", "fractions"} & set(probe["ops"]) == set()
