#!/usr/bin/env python3
"""Print the float64 output and gradient digests pinned in tests/test_toynet.py.

    python scripts/pin_digests.py

OpenBLAS picks its float64 GEMM kernel by CPU family, and each family rounds
differently, so the test accepts one digest per family. For each family this
runs ``test_toynet.float64_digests`` in a child process whose environment
alone has OPENBLAS_CORETYPE set to it, and prints the family, the outputs'
digest and the gradients' digest. A family the CPU cannot run falls back to
the library's own choice, so run it on a CPU with AVX-512 for all five.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")
CHILD = "import test_toynet; print(*test_toynet.float64_digests())"


def main() -> int:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    for family in FAMILIES:
        env = {**os.environ, "OPENBLAS_CORETYPE": family, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        print(family, *out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
