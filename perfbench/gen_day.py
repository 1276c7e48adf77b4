"""Write one seeded simulated day as a log CSV plus a meta JSON.

Usage: ``gen_day.py OUT.csv SEED FLEET SPOTS DECOYS DAY_OF_WEEK``.
The meta file (``OUT.json``) records the input sizes of the run record.
"""

import json
import sys
from pathlib import Path

from repro.sim.config import SimulationConfig
from repro.sim.fleet import simulate_day


def main(argv) -> int:
    out, seed, fleet, spots, decoys, dow = argv
    config = SimulationConfig(
        seed=int(seed),
        fleet_size=int(fleet),
        n_queue_spots=int(spots),
        n_decoy_landmarks=int(decoys),
        day_of_week=int(dow),
        day_index=int(dow),
    )
    output = simulate_day(config)
    path = Path(out)
    output.store.to_csv(path)
    lo, _ = output.store.time_span
    meta = {
        "seed": int(seed),
        "fleet": int(fleet),
        "ground_truth_spots": int(spots),
        "decoys": int(decoys),
        "day_of_week": int(dow),
        "records": len(output.store),
        "taxis": output.store.taxi_count,
        "epoch_day": int(lo // 86400),
    }
    path.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
