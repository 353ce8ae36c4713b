"""Set-up probe: started by run.py in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED

Imports btwifi, parses the workload's scenario, builds its RunConfigs and
its first run, and prints the monotonic clock at the moment that run is
about to dispatch its first event.
"""

import sys

if __name__ == "__main__":
    import workloads

    w = workloads.WORKLOADS[sys.argv[1]]
    print(repr(workloads.first_event_time(w, int(sys.argv[2]))))
