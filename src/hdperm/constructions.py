"""Explicit d-dimensional permutations: the modular construction and the
block-lift family.

The block lift doubles an order-n/2 modular permutation: every base cell with
value j becomes a [2]^d block holding the two values j and j + n/2, and each
block independently picks one of its exactly two line-valid arrangements by
its bit, one bit per base cell in row-major order over [n/2]^d. That yields
2^{(n/2)^d} distinct permutations of order n, an exp(Ω(n^d)) lower bound on
the total count. block_lift(shape, bits) builds one; random_bits(shape, seed)
draws its bits.
"""

import random

from hdperm.core import PermTensor, Shape, _is_int, check_cells


def modular_perm(shape: Shape) -> PermTensor:
    """P(i_1,...,i_d) = (i_1 + ... + i_d) mod n. Every line walks all
    residues, so this is always valid."""
    check_cells(shape)
    n = shape.n
    values = tuple(sum(coords) % n for coords in shape.cells())
    return PermTensor(shape, values)


def _nblocks(shape: Shape) -> int:
    """(n/2)^d, the number of blocks; an odd order has none."""
    if shape.n % 2:
        raise ValueError(f"block construction needs even n, got {shape.n}")
    return (shape.n // 2) ** shape.d


def random_bits(shape: Shape, seed=None) -> tuple:
    """(n/2)^d arrangement bits drawn from random.Random(seed)."""
    check_cells(shape)
    rng = random.Random(seed)
    return tuple(rng.randrange(2) for _ in range(_nblocks(shape)))


def block_lift(shape: Shape, bits=None) -> PermTensor:
    """Lift the order-n/2 modular permutation to order n.

    The block at base cell b with base value j holds
    value(eps) = j + (n/2) * ((eps_1 + ... + eps_d + bits[b]) mod 2)
    at in-block offset eps in {0,1}^d. Flipping the bit swaps the two values
    everywhere in the block, which is the other valid arrangement. Without
    bits every bit is 0.
    """
    check_cells(shape)
    nblocks = _nblocks(shape)  # refuses an odd n, n = 1 among them
    if bits is None:
        bits = (0,) * nblocks
    if len(bits) != nblocks:
        raise ValueError(f"need {nblocks} bits, got {len(bits)}")
    if not all(_is_int(b) and b in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    n, half = shape.n, shape.n // 2
    # per cell, one axis at a time: block rank, block coordinate sum, offset parity
    ranks, sums, parities = [0], [0], [0]
    for _ in range(shape.d):
        ranks = [r * half + c // 2 for r in ranks for c in range(n)]
        sums = [t + c // 2 for t in sums for c in range(n)]
        parities = [p ^ c & 1 for p in parities for c in range(n)]
    values = tuple([t % half + half * (p ^ bits[r]) for r, t, p in zip(ranks, sums, parities)])
    return PermTensor(shape, values)


def block_count(shape: Shape) -> int:
    """Exactly 2^{(n/2)^d} tensors arise from the choices of bits."""
    return 2 ** _nblocks(shape)
