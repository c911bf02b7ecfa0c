"""Boundary recovery of depth-stratified Lame moduli from localized DN pairings.

The package is organized around the pipeline

    elastic   -- isotropic tensor algebra, admissibility, depth profiles
    stroh     -- 6x6 first-order formalism at a point, Jordan chain, impedance Z,
                 the printed closed-form order-m tables
    ansatz    -- oscillating boundary probes: cutoffs, ProbeSpec
    cascade   -- the corrector cascade behind the probes and its residual decay
    forward   -- independent DtN forward solver for stratified half-spaces
    reconstruct -- N-ladders, extrapolation, recovery of moduli and derivatives
    geometry  -- boundary normal coordinates and the curved-boundary algebra
    cli       -- configuration-driven orchestration
    oracles   -- the references that the tests check the run path against
"""

__version__ = "0.1.0"
