"""What setup_s times, in a fresh interpreter: import chebcast, then build the
workload's denoiser spec and schedule.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys

import workloads

if __name__ == "__main__":
    wl = workloads.WORKLOADS[sys.argv[1]]
    workloads.build_spec(wl)
    workloads.build_schedule(wl)
