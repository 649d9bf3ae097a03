"""Cold-start probe, run by run.py in a fresh interpreter.

    python3 bench/probe.py '<probe spec JSON>'

Times ``import l1gram`` (with its CLI module), then one cheap call of the
workload's entry point twice, and prints one JSON line with ``import_s``,
``first_s`` and ``second_s``.  The first call minus the second is the
cold-start excess: work the package defers to its first call.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import l1gram.bounds
    import l1gram.cli
    import_s = time.perf_counter() - t0

    def call():
        if spec["kind"] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                rc = l1gram.cli.main(spec["argv"])
            if rc != 0:
                raise SystemExit(f"probe call exited with {rc}")
        else:
            l1gram.bounds.certify_ratio(spec["n"], spec["seed"], mode="structured")

    times = []
    for _ in range(2):
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return {"import_s": import_s, "first_s": times[0], "second_s": times[1]}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
