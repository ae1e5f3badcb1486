"""One BLAS thread for the command-line tool.

``cli.main`` runs each command inside ``single_thread``, which sets every
OpenBLAS loaded in the process to one thread and restores the previous
counts on exit.  Two reasons:

- Outputs that do not depend on the core count.  A threaded BLAS sums in
  an order that depends on the thread count, so the last bits of steps 1
  and 3, and where step 3 amplifies rounding even the picked model,
  changed with ``OPENBLAS_NUM_THREADS``.
- Steady op times.  After a threaded call, an OpenBLAS worker spins for a
  while before it sleeps.  Step 3 calls scipy's BLAS every few
  milliseconds, so on the default thread count that worker spun through
  a whole ``identify`` and held the second core.  On 2 vCPUs the ops then
  ran at two speeds about 1.5 times apart, in every phase of the op (pure
  Python included), and the share of slow ops changed from one process to
  the next.  At one thread there was no spinning worker, and the rate was
  the same to 0.5 % over three processes, at the fast speed.  Steps 1 and
  3 work on 2n x 2n matrices (2n <= 600 on the default grid), too small to
  gain much from a second thread.

The library functions leave the thread counts alone; a caller who wants
the same can wrap them in ``single_thread``.  Not in ``wnsf_identify``
itself: OpenBLAS stops its workers when the process forks, and setting the
thread count starts them again, spinning.  A Monte Carlo campaign that
forks a pool and then identifies in the parent paid for that on the first
ops after each fork (their time doubled).

numpy and scipy wheels each bundle their own OpenBLAS (numpy:
scipy-openblas64; scipy: scipy-openblas32), so there are usually two to
set.  They are found by name among the shared objects the process has
mapped, which Linux lists in ``/proc/self/maps``.  Elsewhere, or with a
BLAS other than OpenBLAS, ``single_thread`` changes nothing.  The counts
are process-wide.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable, Iterator, List, Tuple

# (prefix, suffix) of the thread-count functions: reference OpenBLAS, the
# scipy-openblas32 and scipy-openblas64 wheels, 64-bit-integer builds
_SYMBOLS = (("openblas", ""), ("scipy_openblas", ""),
            ("scipy_openblas", "64_"), ("openblas", "64_"))

Pool = Tuple[Callable[[], int], Callable[[int], None]]


def _mapped_openblas() -> List[str]:
    """Paths of the mapped shared objects whose file name has openblas."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1])


@functools.cache
def openblas_pools() -> Tuple[Pool, ...]:
    """(get_num_threads, set_num_threads) of each loaded OpenBLAS, looked up
    once per process.  Importing ``wnsf`` loads numpy's and scipy's."""
    found = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS at one thread."""
    pools = openblas_pools()
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, before):
            put(count)
