"""Two-lane erasure-coded link toolkit.

Building blocks for a transmission system that sends the K native symbols
of each coding generation over a fast lossy main lane and R systematically
coded symbols over a slower error-free auxiliary lane:

  gf256     GF(2^8) arithmetic (polynomial 0x11B)
  codec     systematic random linear encoder/decoder over generations
  fec       FEC correction-budget model (residual BER / SER)
  planner   redundancy, combined code rate, lane timing, delay-matched
            auxiliary rate and its distance feasibility bound
  sim       Monte Carlo two-lane channel simulator
  bertable  tabular channel-BER ingestion plus the synthetic fixture
  scenario  scenario files, sweeps, technology labels, CSV output
  cli       'twolane' command line front end

Import each name from its module. The package root binds only __version__;
the three numpy-backed submodules (gf256, codec, sim) also load on first
attribute access, so ``twolane.sim`` works after a bare ``import twolane``
while ``plan``, ``sweep`` and ``classify`` never import numpy.
"""

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("codec", "gf256", "sim"):
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
