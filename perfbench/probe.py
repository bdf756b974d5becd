"""Set-up probe: prints the seconds one fresh process spends importing the
library and building a workload's inputs.

    python3 perfbench/probe.py <workload>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import checkout  # noqa: E402

if __name__ == "__main__":
    if not checkout.use_checkout_source():
        sys.exit("error: the checkout holds no library source")
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup()
    print(time.perf_counter() - T0)
