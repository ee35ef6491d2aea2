"""Times `import ppav.cli` in a fresh interpreter, beside reference slices.

    PYTHONPATH=src python3 -s perfbench/launch.py

Prints one JSON list: the import's seconds without the time of the slices
that ran inside it, the slices the sampler ran and their seconds.  Only
`reference` is loaded before ppav, and it imports nothing ppav would.
"""

from time import perf_counter

import reference

with reference.Sampler() as sampler:
    start = perf_counter()
    import ppav.cli  # noqa: E402, F401
    end = perf_counter()

import json  # noqa: E402

print(json.dumps([end - start - sampler.inside(start, end)[1], sampler.slices, sampler.spent]))
