"""Set-up child: import diskapprox, make one workload's inputs, report the time.

    python3 perfbench/setup_child.py SRC_DIR WORKDIR SEED SPEC_JSON

Runs in a fresh interpreter so every repetition pays the import again.
Prints one JSON object: {"setup_s": seconds, "manifest": [...]}.
"""

import json
import sys
import time


def main(argv) -> None:
    src, workdir, seed, spec = argv[0], argv[1], int(argv[2]), json.loads(argv[3])
    started = time.perf_counter()
    sys.path.insert(0, src)
    import workloads

    manifest = workloads.setup(spec, seed, workdir)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "manifest": manifest}))


if __name__ == "__main__":
    main(sys.argv[1:])
