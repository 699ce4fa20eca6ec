"""Counter-based random number streams.

Every piece of randomness in the package is drawn from a Philox generator
keyed by a master seed plus a tuple of integer path components (replicate
id, step index, ...).  Streams for distinct paths are independent and a
stream's output depends only on (seed, path), never on scheduling order,
which is what makes worker-pool runs byte-identical to serial runs.

The particle engine draws step k of replicate r from ``stream(seed, r, k)``
but builds none of those generators: ``step_keys`` returns the Philox keys
of every step of a replicate in one pass, and the engine re-keys a single
Philox with them.  The key of ``stream(seed, r, k)`` is
``np.random.SeedSequence(seed, spawn_key=(r, k)).generate_state(2, np.uint64)``.
NumPy's SeedSequence algorithm (frozen by NEP 19) hashes the entropy words
seed, r, k into a pool of four 32-bit words in order, so the pool after
seed and r is the pool of ``SeedSequence(seed, spawn_key=(r,))``.
``step_keys`` reads that pool from NumPy and runs the two remaining stages
as 32-bit array arithmetic over k: it mixes the word k into each pool word,
then hashes the pool into the four output words.  The tests check the
table bit for bit against NumPy's own SeedSequence.
"""

import numpy as np

__all__ = ["stream", "derive_seed", "step_keys"]

# the constants of numpy.random.SeedSequence
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _words(x):
    """The number of 32-bit words SeedSequence reads from the integer ``x``."""
    return max(1, -(-x.bit_length() // 32))


def _hash_run(const, mult, size):
    """The (xor, multiplier) constants of ``size`` successive SeedSequence hashes."""
    out = np.empty((2, size), dtype=np.uint32)
    for i in range(size):
        out[0, i] = const
        const = const * mult & _MASK32
        out[1, i] = const
    return out


def step_keys(seed, replicate, n):
    """The Philox keys of ``stream(seed, replicate, k)`` for k = 0..n, as (n + 1, 2) uint64.

    Row k is bit for bit the key NumPy derives for that stream; n < 2**32.
    """
    seed, replicate = int(seed), int(replicate)
    if not 0 <= n <= _MASK32:
        raise ValueError(f"need 0 <= n < 2**32, got {n}")
    ss = np.random.SeedSequence(seed, spawn_key=(replicate,))
    size = ss.pool_size
    # the pool hashed every entropy word into every pool word once: the seed
    # padded to the pool size, then the replicate
    hashed = size * (max(_words(seed), size) + _words(replicate))
    xor, mul = _hash_run(_INIT_A * pow(_MULT_A, hashed, _MASK32 + 1) & _MASK32, _MULT_A, size)
    h = (np.arange(n + 1, dtype=np.uint32)[:, None] ^ xor) * mul
    h ^= h >> 16
    w = ss.pool * np.uint32(_MIX_MULT_L) - h * np.uint32(_MIX_MULT_R)
    w ^= w >> 16
    xor, mul = _hash_run(_INIT_B, _MULT_B, size)
    w = (w ^ xor) * mul
    w ^= w >> 16
    w = w.astype(np.uint64)
    # output words pair up little-endian into the two 64-bit key words
    return w[:, 0::2] | w[:, 1::2] << np.uint64(32)
