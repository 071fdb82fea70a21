"""Set-up probe: import meshddbs and its CLI, then make a workload's inputs.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` times this script in a fresh interpreter for ``setup_s``: it
is what every command-line invocation pays before doing any work.
"""

import sys

from run import use_checkout_sources

if __name__ == "__main__":
    if not use_checkout_sources():
        sys.exit(2)
    import meshddbs  # noqa: F401
    import meshddbs.cli  # noqa: F401
    import workloads

    workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
