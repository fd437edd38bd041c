"""nlhom: a numerical laboratory for nonlocal homogenization.

Two families of one-dimensional stochastic PDEs with rapidly oscillating
periodic coefficients are implemented side by side:

* an integrable-jump family, where a scaled nonlocal operator homogenizes to
  an effective local diffusion, and
* an alpha-stable family, where the limit stays nonlocal (a constant-
  coefficient fractional Laplacian plus effective lower-order terms).

The package computes the periodic cell problems and effective coefficients,
assembles the full-line multiscale operators, runs SPDE and particle
ensembles, and checks the predicted convergence rates.  For the nonlinear
filtering (Zakai equation) reading of the equations it provides Q1, the
effective diffusivity of the jump family's measure-reweighted cell
generator (``cell.zakai_cell_I``), and a stable-family set with the
filtering coefficient pattern f = sigma^2 (``fixtures.stable_filter``);
whether the lab's march on that set is a filtering density evolution is
open, since the lab marches the generator and the Zakai equation its
adjoint.
"""

__version__ = "0.1.0"
