"""Demonstrate the algebraic structure of the reduced quasilinear system.

The evolution of v = (u1, theta, q) has the form

    d_t v + A(v) d_xi v + f(v, d_eta v) + g(v) = B(v) d_eta^2 v,

and the whole well-posedness story rests on one matrix S(v) that
simultaneously symmetrizes the advection flux and diagonalizes the
diffusion.  This script samples random admissible states and checks, at
every sample:

  * S is symmetric positive definite (Cholesky succeeds),
  * S A is symmetric,
  * S B is the diagonal matrix diag(2 mu theta^2 q, 2 kappa theta q,
    nu theta^2),
  * the lower-order terms factor exactly as f = F(v) d_eta v and
    g = G(v) v.

Everything holds to rounding because these are identities of the
coefficient algebra, not discretization statements.  The checks are those
of `mhbl check-identities`, which this script runs; it exits with that
command's code.
"""

import sys

from mhbl.cli import main

if __name__ == "__main__":
    sys.exit(main(["check-identities"]))
