#!/usr/bin/env python3
"""Print the float64 digests pinned in tests/test_toynet.py, and check the
conv band rule under each OpenBLAS kernel family.

    python scripts/pin_digests.py

OpenBLAS picks its float64 GEMM kernel by CPU family, and each family rounds
differently, so the tests accept one digest per family. For each family this
runs ``test_toynet.float64_digests`` and ``test_toynet.float64_train_digest``
in a child process whose environment alone has OPENBLAS_CORETYPE set to it,
and prints the family, the outputs' digest, the gradients' digest and the
digest of the parameters after three training iterations.

Then, for each family at OPENBLAS_NUM_THREADS=1 and at the library's default
thread count, a child runs ``test_toynet.predict_is_forward_in_bands`` and
the script prints whether ``predict`` gave ``forward``'s outputs byte for
byte at the shapes whose convs multiply their columns in row bands.

Last, a child runs ``test_synthdata.bench_set_digests`` and the script
prints the sha256 of each of perfbench's two synth datasets, as pinned in
tests/test_synthdata.py; they come out the same under every family.

A family the CPU cannot run falls back to the library's own choice, so run
it on a CPU with AVX-512 for all five.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")
DIGESTS = ("import test_toynet; print(*test_toynet.float64_digests(), "
           "test_toynet.float64_train_digest())")
BANDS = "import test_toynet; print(test_toynet.predict_is_forward_in_bands())"
DATASETS = ("import test_synthdata\n"
            "for item in test_synthdata.bench_set_digests().items(): print(*item)")


def run_child(code: str, env: dict) -> list[str]:
    """The output words of ``code`` run in a child process with ``env``."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True).stdout.split()


def main() -> int:
    for family in FAMILIES:
        print(family, *run_child(DIGESTS, {**os.environ, "OPENBLAS_CORETYPE": family}))
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for family in FAMILIES:
        for threads in ("1", "default"):
            env = {**unset, "OPENBLAS_CORETYPE": family}
            if threads != "default":
                env["OPENBLAS_NUM_THREADS"] = threads
            (same,) = run_child(BANDS, env)
            print(f"{family} threads={threads} predict is forward in bands: {same}")
    words = run_child(DATASETS, dict(os.environ))
    for name, digest in zip(words[::2], words[1::2]):
        print(f"dataset {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
