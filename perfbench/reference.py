"""Fixed reference workload that measures the machine's current speed.

Run as a fresh process (``python3 reference.py``). It imports nothing from
the program under test and does the same kind of work as the CLI: start an
interpreter, decode JSON lines and count authors per year in dictionaries.
Its duration changes only with the machine, so the benchmark divides the
program's timings by it (see run.py) to remove the machine's speed drift.
"""

import json
import random

rng = random.Random(0)
lines = [
    json.dumps({
        "pub_id": f"R{i:06d}",
        "year": 2000 + rng.randrange(18),
        "authors": [f"a{rng.randrange(5000):05d}" for _ in range(rng.randint(1, 8))],
        "title": " ".join(f"w{rng.randrange(400)}" for _ in range(8)),
    })
    for i in range(6000)
]
by_author: dict[str, dict[int, int]] = {}
for line in lines:
    record = json.loads(line)
    for author in record["authors"]:
        years = by_author.setdefault(author, {})
        years[record["year"]] = years.get(record["year"], 0) + 1
totals = sorted((sum(years.values()), author) for author, years in by_author.items())
