"""Board-level link parameters for multi-GPU systems (Section 6).

A two-GPU board is topologically a two-node ring: the
:func:`~repro.core.presets.multi_gpu` preset builds it as the registry's
``ring`` at these parameters, and the hierarchical fabric uses them for
its board ring between packages.  What distinguishes the board tier is
far lower bandwidth (256 GB/s aggregate next-gen NVLink-class vs 768 GB/s
*per link* on package) and far higher per-traversal latency.  Energy per
bit is also ~20x worse (Table 2), which the energy model charges
separately by tier.
"""

from __future__ import annotations

#: Aggregate next-generation board-level bandwidth assumed in Section 6.1
#: (GB/s).  Split across two directions.
BOARD_AGGREGATE_GBPS = 256.0

#: One-way latency of a board-level link traversal, in cycles at 1 GHz.
#: Board links cross connectors and longer traces; we charge ~10x the
#: on-package hop latency.
BOARD_HOP_LATENCY_CYCLES = 320.0
