"""Keyed random number streams.

Every piece of randomness in the package is drawn from an SFC64 generator
(numpy's Small Fast Chaotic generator) seeded by the ``SeedSequence`` of a
master seed and a tuple of integer path components (a replicate id, ...).
Streams for distinct paths are independent and a stream's output depends
only on (seed, path), never on scheduling order, which is what makes
worker-pool runs byte-identical to serial runs.

The generator fixes the draws, not their law.  Each draw is a fixed
function of the stream's words, the same function whichever generator
supplies them: an ancestor is the inverse-CDF index of a uniform, a normal
comes from numpy's ziggurat and a multinomial from numpy's sampler.  So a
run's law is the law of those functions of i.i.d. uniform words, which is
the multinomial-resampling-then-invariant-move law the paper's bounds
concern.  SFC64 supplies such words with no counter or key of its own; the
``SeedSequence`` hash of (seed, path) is what separates the streams.

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
    return np.random.Generator(np.random.SFC64(ss))


def derive_seed(seed, *path):
    """Derive a child master seed for a sub-experiment (e.g. one grid cell).

    Children for distinct paths are statistically independent of each other
    and of ``stream(seed, ...)`` draws.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(0x5EED, *(int(p) for p in path)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

