"""Screen the bho_sweep dataset generator: which indices verify on every C.

    python3 perfbench/screen_bho.py START STOP

Builds datasets START..STOP-1 of `workloads.build_bho_case`, drives the
whole C grid on each, and prints one JSON line per dataset with the
operations that raised and the failed correctness checks.
`workloads.BHO_POOL` lists the indices with neither;
`workloads.BHO_PROBE` takes its points from the others.
"""

import json
import sys
import tempfile

import run
import runner
import workloads


def main(argv) -> int:
    start, stop = (int(a) for a in argv)
    m = run.import_package()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for index in range(start, stop):
            case = workloads.build_bho_case(m, workdir, index)
            result = runner.Result()
            result.run_unit([workloads.BhoPoint(m, case, C) for C in workloads.C_GRID])
            print(json.dumps({"index": index, "failures": result.failure_summary(),
                              "failed_checks": result.failed_checks}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
