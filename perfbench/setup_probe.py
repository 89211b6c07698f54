"""Set-up probe: one process doing what a CLI invocation does before its job.

Usage: ``python3 perfbench/setup_probe.py <cli args...>``. It imports the
program, builds the parser, resolves the configuration and builds the inputs
(torus and initial metric), then prints ``time.monotonic()``. Run from
``run.py``, which reads the clock just before starting the process; the
difference is the set-up time. ``time.monotonic`` is one clock for every
process on the machine.
"""

import sys
import time

from workloads import import_program


def main() -> None:
    import_program()
    from fuzzyricci import cli
    from fuzzyricci.flow import metric_from_spec
    from fuzzyricci.torus import FuzzyTorus

    args = cli.build_parser().parse_args(sys.argv[1:])
    config = cli.resolve_config(args, args.command)
    FuzzyTorus(config["n"], config["m"])
    metric_from_spec(config["initial"], config["n"], seed_default=config["seed"])
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
