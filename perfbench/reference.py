"""The reference kernel timed next to every item, in a process of its own.

The kernel stands in for the machine's speed at the moment. Its parts mirror
what the workloads spend time on: an im2col-shaped SGEMM (a 3x3 convolution,
8 -> 16 channels, on a 256x128 slice), an indexed gather as in trilinear
resampling, writes to freshly mapped pages and short numpy calls. It uses
only numpy and fixed inputs, so no change to c2fseg moves it.

It runs in its own process so that its timings do not depend on the heap the
program leaves behind (which decides whether an allocation reuses pages or
faults in new ones), and so that its arrays never count in the program's
peak RSS. The process times one run per line read on standard input and
prints the seconds; it ends when its standard input closes:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import mmap
import subprocess
import sys
import time

FRESH_BYTES = 16 << 20


def kernel_s() -> float:
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((72, 32768), dtype=np.float32)
    w = rng.standard_normal((16, 72), dtype=np.float32)
    for _ in range(18):
        w @ cols
    vals = rng.random(2_000_000, dtype=np.float32)
    idx = rng.integers(0, vals.size, 1_000_000)
    for _ in range(6):
        (vals[idx] * 0.5 + vals[idx[::-1]] * 0.5).sum()
    for _ in range(6):
        with mmap.mmap(-1, FRESH_BYTES) as pages:  # new pages every time, whatever the heap holds
            buf = np.frombuffer(pages, np.float32)
            buf.fill(1.0)
            (buf * 2.0 + 1.0).sum()
            del buf  # the map cannot close while an array still exports it
    small = np.zeros(64, np.float32)
    for _ in range(4500):
        small.sum()
    return time.perf_counter() - t0


class Reference:
    """The kernel's process, for the length of a ``with`` block; ``time()`` runs the kernel once."""

    def __enter__(self) -> Reference:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.time()  # warm-up: the first run in a process is slow
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference process ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for _ in sys.stdin:
        print(kernel_s(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
