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

Import each name from its module; the package root holds only __version__.
"""

__version__ = "0.1.0"
