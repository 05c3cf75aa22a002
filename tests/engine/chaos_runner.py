"""Subprocess target for the SIGKILL-and-rerun chaos tests.

Top-level module (not a ``test_*`` file) so the chaos suite can run it
as ``python chaos_runner.py [CACHE_DIR] [--kill-after-flush N]`` in a
process of its own.  With ``--kill-after-flush N`` the runner SIGKILLs
itself right after the Nth disk-cache flush returns, exactly like a
job crashing between two searches (no atexit, no finally blocks, no
flushing), while the pytest process stays alive to assert on the
wreckage.  The kill hook lives here, not in the library: production
code carries no fault injector.

Prints ``library <fingerprint> hits <n>`` on success.  The fingerprint
digests every entry's name, origin, area and full truth table, so two
libraries share one only if they are bit-identical; ``n`` counts the
genomes read back from the cache.
"""

import argparse
import hashlib
import os
import signal
import sys

from repro.approx.library import build_library
from repro.engine.diskcache import FitnessDiskCache


def library_fingerprint(library) -> str:
    digest = hashlib.sha256()
    for entry in library:
        digest.update(
            f"{entry.name}|{entry.origin}|{entry.area_ge!r}|".encode()
        )
        digest.update(entry.lut.table.tobytes())
    return digest.hexdigest()


def install_hooks(kill_after_flush):
    """Count cache hits, and SIGKILL this process after the Nth flush."""
    counts = {"hits": 0, "flushes": 0}
    get, flush = FitnessDiskCache.get, FitnessDiskCache.flush

    def counting_get(self, genome):
        value = get(self, genome)
        if value is not None:
            counts["hits"] += 1
        return value

    def killing_flush(self):
        flush(self)
        counts["flushes"] += 1
        if counts["flushes"] == kill_after_flush:
            os.kill(os.getpid(), signal.SIGKILL)

    FitnessDiskCache.get = counting_get
    FitnessDiskCache.flush = killing_flush
    return counts


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("cache_dir", nargs="?", default=None)
    parser.add_argument("--kill-after-flush", type=int, default=None)
    args = parser.parse_args(argv)
    counts = install_hooks(args.kill_after_flush)
    # hybrid=True runs two pruning searches, so the build flushes twice
    library = build_library(
        width=4,
        population=8,
        generations=4,
        max_candidates=24,
        truncations=((1, 0), (0, 1), (1, 1)),
        hybrid=True,
        structural=False,
        use_cache=False,
        cache_dir=args.cache_dir,
    )
    print(f"library {library_fingerprint(library)} hits {counts['hits']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
