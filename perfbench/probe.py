"""One fresh set-up, run as a child process and timed by run.py.

    python3 perfbench/probe.py <workload> <seed> [tiny]

Imports skipfree (from PYTHONPATH, which run.py points at the
checkout's src/), generates the workload's inputs, performs the
workload's set-up and prints the inputs' digest, so the parent can
check that the child saw byte-identical inputs.
"""

import sys
from pathlib import Path

import skipfree

import inputs
from workloads import WORKLOADS


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    spec = inputs.generate(workload, seed, tiny=sys.argv[3:] == ["tiny"])
    workdir = Path(__file__).resolve().parent.parent / ".perfbench" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload](skipfree, spec, seed, workdir).setup()
    print(inputs.digest(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
