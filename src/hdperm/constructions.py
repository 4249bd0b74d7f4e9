"""Explicit d-dimensional permutations: the modular construction and the
block-lift family.

The block lift doubles an order-n/2 modular permutation: every base cell with
value j becomes a [2]^d block holding the two values j and j + n/2, and each
block independently picks one of its exactly two line-valid arrangements.
That yields 2^{(n/2)^d} distinct permutations of order n, an exp(Ω(n^d))
lower bound on the total count.
"""

import random
from itertools import product
from typing import Optional

from hdperm.core import PermTensor, Record, Shape


def modular_perm(shape: Shape) -> PermTensor:
    """P(i_1,...,i_d) = (i_1 + ... + i_d) mod n. Every line walks all
    residues, so this is always valid."""
    n = shape.n
    values = tuple(sum(coords) % n for coords in shape.cells())
    return PermTensor(shape, values)


class BlockChoice(Record):
    """One bit per base cell (row-major over [n/2]^d), selecting the parity
    of that cell's block arrangement."""

    __slots__ = ("shape", "bits")

    def __init__(self, shape: Shape, bits: tuple):
        if shape.n % 2:
            raise ValueError(f"block construction needs even n, got {shape.n}")
        nblocks = (shape.n // 2) ** shape.d
        if len(bits) != nblocks:
            raise ValueError(f"need {nblocks} bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        super().__init__(shape, bits)

    @classmethod
    def from_string(cls, shape: Shape, text: str) -> "BlockChoice":
        return cls(shape, tuple(int(ch) for ch in text.strip()))

    @classmethod
    def random(cls, shape: Shape, seed=None) -> "BlockChoice":
        if shape.n % 2:  # fail before drawing (n//2)^d bits for nothing
            raise ValueError(f"block construction needs even n, got {shape.n}")
        rng = random.Random(seed)
        nblocks = (shape.n // 2) ** shape.d
        return cls(shape, tuple(rng.randrange(2) for _ in range(nblocks)))


def block_lift(shape: Shape, choice: Optional[BlockChoice] = None) -> PermTensor:
    """Lift the order-n/2 modular permutation to order n.

    The block at base cell b with base value j holds
    value(eps) = j + (n/2) * ((eps_1 + ... + eps_d + bit_b) mod 2)
    at in-block offset eps in {0,1}^d. Flipping the bit swaps the two values
    everywhere in the block, which is the other valid arrangement. Without a
    choice every bit is 0.
    """
    d, n = shape.d, shape.n
    half = n // 2
    if choice is None:  # first, so an odd n gets BlockChoice's ValueError
        choice = BlockChoice(shape, (0,) * half**d)
    if choice.shape != shape:
        raise ValueError(f"choice is for {choice.shape}, not {shape}")
    base = Shape(d, half)
    values = [0] * shape.ncells
    for brank, bcoords in enumerate(base.cells()):
        j = sum(bcoords) % half
        bit = choice.bits[brank]
        for eps in product(range(2), repeat=d):
            coords = tuple(2 * bc + e for bc, e in zip(bcoords, eps))
            values[shape.rank(coords)] = j + half * ((sum(eps) + bit) % 2)
    return PermTensor(shape, tuple(values))


def block_count(shape: Shape) -> int:
    """Exactly 2^{(n/2)^d} tensors arise from block choices."""
    if shape.n % 2:
        raise ValueError(f"block construction needs even n, got {shape.n}")
    return 2 ** ((shape.n // 2) ** shape.d)
