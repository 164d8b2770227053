#!/usr/bin/env python3
"""Cross-TU link test for toposense_hotpath.

Asserts the heap allocation in b.cpp is reported as reachable from the
HOT_PATH root whose annotation sits on a declaration in shared.hpp and whose
definition sits in a.cpp. The finding can only exist if annotation merging
and call-edge resolution work across per-file summaries: each half of the
fixture analyzed on its own reports nothing.

Usage: check_cross_tu.py <toposense_hotpath> <fixture_dir>
"""

import os
import subprocess
import sys


def run(tool, fixture, paths):
    return subprocess.run([tool] + paths, cwd=fixture, capture_output=True, text=True,
                          check=False)


def main():
    tool, fixture = os.path.abspath(sys.argv[1]), sys.argv[2]

    # Each half alone must be clean: a.cpp (with the header that carries the
    # annotation) has the root but no violation, b.cpp has the violation but
    # no root.
    for half in (["src/a.cpp", "src/shared.hpp"], ["src/b.cpp"]):
        proc = run(tool, fixture, half)
        if proc.returncode != 0:
            print(f"half {' '.join(half)} should be clean:", proc.stdout, proc.stderr)
            return 1

    # The union links the halves into one finding.
    proc = run(tool, fixture, ["src"])
    if proc.returncode != 1:
        print("expected exit 1 from the whole fixture, got", proc.returncode)
        print(proc.stdout, proc.stderr)
        return 1
    wanted = "[hotpath/heap-alloc]"
    chain = "fx::Root::run -> fx::Worker::spin"
    if wanted not in proc.stdout or chain not in proc.stdout:
        print("missing cross-TU finding or chain in output:")
        print(proc.stdout)
        return 1
    if "1 finding(s)" not in proc.stdout:
        print("expected exactly one finding:")
        print(proc.stdout)
        return 1
    print("cross-TU link OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
