"""Compute the stored exact moments of every sweep cell.

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference.json: for every in-window cell of the sweep workloads,
the probability that a trial yields a valid estimate, the mean, variance and
fourth central moment of the valid estimates, and a limit on the spread of
the cell's trials, from enumerating the whole count space. The moments do
not depend on any seed, so this runs once (a few minutes); rerun it only when
a sweep workload's cells change. The checks then compare every later commit's
sweeps with the estimators as they were when this ran, never with themselves.
"""

from __future__ import annotations

import json

import qclock

import exact
import workloads


def main() -> None:
    reference = {}
    for key, cell in sorted(workloads.reference_cells().items()):
        reference[key] = exact.estimator_moments(qclock, cell.spec, cell.n, cell.t,
                                                 cell.estimator, cell.trials)
        print(key, reference[key], flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
