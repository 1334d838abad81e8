"""The documented BLAS thread-count claim: each thread count repeats its
own fft / ifft bytes, and one and two threads agree to within a bound."""
import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# rook 5, seed 5: fft and ifft of one random input, saved as two rows.
SCRIPT = """
import sys
import numpy as np
from invsemifft.families import FamilySpec, build
from invsemifft.semigroup_fourier import fft, ifft, induce
from invsemifft.structure import SEMIGROUP, FunctionOnS
S = build(FamilySpec("rook", 5))
Y = induce(S)
rng = np.random.default_rng(5)
f = FunctionOnS(S, SEMIGROUP, rng.normal(size=len(S)) + 1j * rng.normal(size=len(S)))
c = fft(f, Y)
np.save(sys.argv[1], np.stack([c.data, ifft(c).values]))
"""

# Measured between OPENBLAS_NUM_THREADS=1 and =2: fft differs by at most
# 2.5e-15 (4 of 1,546 numbers), ifft by at most 1.4e-15 (811 of 1,546).
# The bound is four times the larger.
THREAD_BOUND = 1e-14


def _run(threads: int, path) -> np.ndarray:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env,
                   check=True, timeout=120)
    return np.load(path)


def test_thread_counts_repeat_their_bytes_and_agree(tmp_path):
    runs = {t: [_run(t, tmp_path / f"t{t}_{k}.npy") for k in range(2)]
            for t in (1, 2)}
    for t, (a, b) in runs.items():
        assert a.tobytes() == b.tobytes(), f"{t} threads do not repeat"
    one, two = runs[1][0], runs[2][0]
    for row, name in enumerate(("fft", "ifft")):
        err = np.abs(one[row] - two[row]).max()
        assert err <= THREAD_BOUND, f"{name}: 1 vs 2 threads differ by {err:.2e}"
