"""hdperm: exact counting and bound verification for d-dimensional
permutations (Latin hypercubes)."""
