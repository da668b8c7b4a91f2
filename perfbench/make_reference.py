#!/usr/bin/env python3
"""Record the reference outputs that every benchmark iteration is checked
against.

    python3 perfbench/make_reference.py [--profile full|tiny]

Both fixed workloads are recorded together.  Run it only at a commit whose
outputs are accepted as correct; the files in perfbench/reference/ were
recorded at the seed commit of the benchmark.  The ``oracle`` workload needs
no reference: it checks itself against the dense oracles.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run

FIXED = ("coeffs_xi_flow", "schedule")


def record(name: str, profile_name: str) -> str:
    import reference
    import workloads
    from tracer import no_span

    workload = workloads.WORKLOADS[name](workloads.PROFILES[profile_name], 0)
    work = os.path.join(run.OUT_DIR, f"reference-{name}-{os.getpid()}")
    try:
        state = workload.prepare(os.path.join(work, "setup"))
        out_dir = os.path.join(work, "out")
        os.makedirs(out_dir)
        results = workload.run(state, out_dir, no_span)
        payload = {"workload": name, "profile": profile_name,
                   "environment": run.environment(),
                   "outputs": workload.outputs(out_dir, results),
                   "sha256": reference.file_digests(out_dir)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reference.save_reference(profile_name, name, payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    run.bootstrap()
    for name in FIXED:
        print(record(name, args.profile))
    return 0


if __name__ == "__main__":
    sys.exit(main())
