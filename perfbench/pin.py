"""Record the golden outputs in pins.json from the library as it is now.

    python3 perfbench/pin.py [workload ...]

Run it only to pin deliberately: a pin records what the library computes, so
re-pinning after a change hides any output that change broke.
"""

import json
import shutil
import sys

import checkout

if __name__ == "__main__":
    if not checkout.use_checkout_source():
        sys.exit("error: the checkout holds no library source")
    from workloads import WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    pins = json.loads(checkout.PINS.read_text()) if checkout.PINS.exists() else {}
    work_dir = checkout.WORK / "pin"
    try:
        for name in names:
            workload = WORKLOADS[name]
            pins[name] = workload.record_pins(workload.setup(), work_dir)
            print(f"pinned {name}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checkout.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
