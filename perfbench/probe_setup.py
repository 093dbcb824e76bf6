"""Set-up probe: import the package and build one workload's inputs, then exit.

``run.py`` starts this script in fresh processes; the median of their
set-up times is the ``setup_s`` metric. The script prints the time from
its first statement to the built inputs, raw and scaled to the reference
core speed (see speedprobe.py), as one JSON line.

    python3 perfbench/probe_setup.py <workload> <seed>
"""

import json
import sys
import time

import benchenv
import speedprobe


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    start = time.perf_counter()
    with speedprobe.SpeedProbe() as probe:
        benchenv.pin_threads()
        benchenv.import_package()
        import workloads

        workloads.build(name, seed)
    end = time.perf_counter()
    print(json.dumps({"raw_s": end - start, "scaled_s": probe.scaled(start, end)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
