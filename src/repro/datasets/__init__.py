"""Datasets: the paper's synthetic family and real-world surrogates.

The synthetic stochastic block model reproduces Section 6.1 exactly.
The three real-world datasets (Rice-Facebook, Instagram-Activities,
Facebook-SNAP) are not redistributable / not fetchable offline, so this
package generates **surrogates matched to the statistics the paper
reports** — group sizes and within/across-group edge counts — which are
precisely the structural properties the paper identifies as the causes
of disparity (Section 4.2).  Each surrogate's module docstring
(:mod:`~repro.datasets.rice`, :mod:`~repro.datasets.instagram`,
:mod:`~repro.datasets.facebook_snap`) lists the reported statistics it
plants and what it fills in.
"""

from repro.datasets.example import illustrative_graph
from repro.datasets.facebook_snap import facebook_snap_surrogate
from repro.datasets.instagram import instagram_surrogate
from repro.datasets.rice import rice_facebook_surrogate
from repro.datasets.synthetic import default_synthetic, synthetic_sbm

__all__ = [
    "illustrative_graph",
    "default_synthetic",
    "synthetic_sbm",
    "rice_facebook_surrogate",
    "instagram_surrogate",
    "facebook_snap_surrogate",
]
