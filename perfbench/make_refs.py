"""Compute reference data for the benchmark's accuracy metric.

Usage::

    python3 perfbench/make_refs.py --workload simulate_n16 --seeds 0 1
    python3 perfbench/make_refs.py --workload track_n4 --seeds 5 --out .perfbench/refs

Each reference reruns the job's flow through the library at rel_tol 1e-13 and
abs_tol 1e-15 (see ``workloads.compute_reference``) and is saved as
``<workload>-seed<seed>.npz``. The parameters that produced it go into
``params.json`` in the same directory. Without ``--out`` the files go to
``perfbench/refs``, the references stored with the benchmark; ``run.py``
calls this script with ``--out .perfbench/refs`` for seeds that have none.
"""

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

import workloads
from workloads import STORED_REFS, WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--out", type=Path, default=STORED_REFS)
    args = parser.parse_args()

    workloads.import_program()
    w = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    params_path = args.out / "params.json"
    params = json.loads(params_path.read_text()) if params_path.is_file() else {}
    for seed in args.seeds:
        start = time.perf_counter()
        ref = workloads.compute_reference(w, seed)
        path = workloads.reference_file(args.out, w, seed)
        np.savez_compressed(path, **ref)
        params[path.name] = {
            "workload": w.name,
            "seed": seed,
            "config": workloads.reference_config(w, seed),
            "arrays": {k: list(v.shape) for k, v in ref.items()},
            "compute_s": round(time.perf_counter() - start, 2),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        params[path.name]["config"].pop("out")
    params_path.write_text(json.dumps(params, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
