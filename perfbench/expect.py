"""Expected answers, computed in a process of their own.

``python perfbench/expect.py IN.json OUT.json`` with ``REPRO_CACHE_DIR``
pointing at the built dataset cache.  ``IN.json`` holds
``{"figures": [names], "queries": [documents]}``; ``OUT.json`` gets the
answers the server should have sent, through the same public functions
the server calls (``FIGURE_GENERATORS`` and ``wire.execute_query``) and
the same JSON round trip, plus the dataset's month and record counts.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    source, target = argv
    from repro.core.figures import FIGURE_GENERATORS
    from repro.engine.perf import PERF
    from repro.serve import wire
    from repro.simulation.ecosystem import default_model

    with open(source, encoding="utf-8") as handle:
        wanted = json.load(handle)
    store = default_model().passive_store()
    answers = {
        "cache_hit": PERF.dataset_cache_hits > 0,
        "months": len(store.months()),
        "records": len(store),
        "figures": {
            name: json.loads(json.dumps({
                "figure": name,
                "series": wire.encode_series(FIGURE_GENERATORS[name](store)),
            }))
            for name in wanted["figures"]
        },
        "queries": [
            json.loads(json.dumps(wire.execute_query(store, doc)))
            for doc in wanted["queries"]
        ],
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
