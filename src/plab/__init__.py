"""plab — a desk-scale laboratory for max-estimation learning.

Finitely supported distributions and quantile learning (plab.emx), finite
precision interfaces (plab.coarse), monotone sample compression
(plab.compression), quantum d-copy discrimination (plab.quantum), and an
exact LP decider and a certified-bracket SDP decider (plab.feasibility),
with a seeded, report-writing CLI (plab.cli).
"""

__version__ = "0.1.0"
