"""Recompute the loss ceilings that perfbench/run.py checks.

Each ceiling is three times the largest loss seen over ``--seeds`` seeds of
the workload's inputs.  Run it from the repository root at the commit the ceilings should describe::

    python3 perfbench/calibrate.py --seeds 40 > perfbench/ceilings.json
"""

import argparse
import json
import math
import statistics

import run

LOSSES = ("loss_a3", "recon_l1")
FACTOR = 3


def _ceiling(value):
    """``FACTOR`` times ``value``, rounded up to three significant digits."""
    scaled = FACTOR * value
    unit = 10.0 ** (math.floor(math.log10(scaled)) - 2)
    return round(math.ceil(scaled / unit) * unit, 12)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args()
    program = run.Program()
    tt = program.tt
    work = run.OUT / "calibrate"
    work.mkdir(parents=True, exist_ok=True)
    worst = {}

    def see(workload, losses):
        entry = worst.setdefault(workload, dict.fromkeys(LOSSES, 0.0))
        for name in LOSSES:
            entry[name] = max(entry[name], losses[name])

    for seed in range(args.seeds):
        for name, cls in (("corpus-sparse", run.CorpusSparse),
                          ("corpus-dense-hooi", run.CorpusDenseHooi)):
            workload = cls(program, work, seed, run.Ledger(), None)
            y, truth = workload.generate_instance()
            see(name, vars(tt.evaluate(tt.fit(y, workload.cfg).model, truth)))

    out = {"about": f"{FACTOR} times the largest loss seen over seeds 0-{args.seeds - 1}; "
                    "recompute with perfbench/calibrate.py",
           "max_seen": worst}
    for name, losses in worst.items():
        out[name] = {loss: _ceiling(value) for loss, value in losses.items()}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
