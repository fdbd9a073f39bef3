"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>[,<seed>...]``

The clock starts before perfnet is imported, so the result covers the
import (numpy, scipy) and the workload's ``setup``: config, environment,
mixing matrix, stable point and theory constants. The last line of output
is ``{"setup_s": <seconds>}``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    WORKLOADS[argv[0]].setup([int(s) for s in argv[1].split(",")])
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
