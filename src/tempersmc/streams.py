"""Counter-based random number streams.

Every piece of randomness in the package is drawn from a Philox generator
keyed by a master seed plus a tuple of integer path components (a
replicate id, ...).  Streams for distinct paths are independent and a
stream's output depends only on (seed, path), never on scheduling order,
which is what makes worker-pool runs byte-identical to serial runs.

The particle engine draws replicate r of a continuous model from
``stream(seed, r)``, whatever batch of rows it is stepped in: a batch
holds one generator per row.  On a finite model each block b of
replicates, one count batch, draws from ``stream(seed, b)``.  Either way a
generator draws the initial population and then every step, in order
(see ``particles``).
"""

import numpy as np

__all__ = ["stream", "derive_seed"]


def stream(seed, *path):
    """Return a `numpy.random.Generator` keyed by ``(seed, *path)``.

    Calling twice with the same arguments yields generators that produce
    identical output.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *path):
    """Derive a child master seed for a sub-experiment (e.g. one grid cell).

    Children for distinct paths are statistically independent of each other
    and of ``stream(seed, ...)`` draws.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(0x5EED, *(int(p) for p in path)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

