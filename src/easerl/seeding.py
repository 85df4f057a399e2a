"""Deterministic seed derivation.

Every stochastic call site derives its own child seed from a root seed plus a
label path, so results never depend on scheduling order or draw counts
elsewhere in the program.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root: int, *labels) -> int:
    """Stable 63-bit child seed for (root, labels...)."""
    key = repr((int(root),) + tuple(labels)).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(root: int, *labels) -> np.random.Generator:
    """The generator of (root, labels...): the reference definition of every
    stream in the program.  `pcg64_states` gives the same streams' starting
    states many at a time; tests check it against this definition."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *labels)))


# NumPy's SeedSequence hash constants, as `numpy/random/bit_generator.pyx`
# defines them, and the PCG64 multiplier of `pcg64.h`
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
_LOW32, _SHIFT32, _SHIFT16 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint32(16)


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pair of each of a SeedSequence hash's first
    `calls` calls, as (calls, 1) columns: the pairs depend on the call count
    alone, never on the data."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Hash call k on row k of `values`."""
    v = (values ^ xor) * mult
    v ^= v >> _SHIFT16
    return v


def _cross_consts(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Word src's hash calls of the pool's cross mix, as (4, 1) columns
    indexed by the word that receives each; row src stays 0, because a word
    does not mix into itself."""
    xor, mult = np.zeros((4, 1), np.uint32), np.zeros((4, 1), np.uint32)
    dst = [d for d in range(4) if d != src]
    xor[dst], mult[dst] = _XOR_A[4 + 3 * src : 7 + 3 * src], _MUL_A[4 + 3 * src : 7 + 3 * src]
    return xor, mult


# a 4-word pool's mix makes 4 + 4 * 3 hash calls: one per word, then one
# per (source, other word) pair, in order; generate_state(4, np.uint64) then
# makes 8, cycling through the pool twice
_XOR_A, _MUL_A = _hash_consts(_INIT_A, _MULT_A, 16)
_CROSS = [_cross_consts(src) for src in range(4)]
_XOR_B, _MUL_B = (c.reshape(2, 4, 1) for c in _hash_consts(_INIT_B, _MULT_B, 8))


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) that `np.random.PCG64(seed)` starts from, for each
    seed in [0, 2**64).

    NumPy's SeedSequence hash mix runs once for all seeds, on a uint32 array
    with one row per pool word, so its count of array operations does not
    grow with the seeds; only PCG64's own seeding step, on 128-bit
    integers, runs seed by seed.
    """
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    # a seed is at most two uint32 words, low word first; the pool's other
    # two words hash zeros
    pool = np.zeros((4, len(s)), np.uint32)
    pool[0] = s & _LOW32
    pool[1] = s >> _SHIFT32
    pool = _hashmix(pool, _XOR_A[:4], _MUL_A[:4])
    for src, (xor, mult) in enumerate(_CROSS):
        # word src mixes into the other three in order; it does not change
        # meanwhile, so its three hash calls run as one, and every row is
        # mixed before row src gets its own value back
        v = pool * _MIX_L - _hashmix(pool[src], xor, mult) * _MIX_R
        v ^= v >> _SHIFT16
        v[src] = pool[src]
        pool = v
    # generate_state(4, np.uint64): eight words, cycling through the pool
    # twice, read in pairs, low word first, as (seed high, seed low, inc
    # high, inc low)
    words = np.ascontiguousarray(_hashmix(pool, _XOR_B, _MUL_B).reshape(8, -1).T, "<u4")
    states = []
    for sh, sl, ih, il in words.view("<u8").tolist():
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
        inc = ((ih << 64 | il) << 1 | 1) & _M128
        state = ((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _M128
        states.append((state, inc))
    return states
