"""Behavioural entity graphs from labeled network-flow captures.

The toolkit turns a flow CSV into per-snapshot behaviour graphs,
compresses each snapshot's normal population with density clustering
(DBSCAN and OPTICS's eps extraction, one pass at min_pts 2, and
HDBSCAN, implemented here), and classifies node behaviour with a
from-scratch spectral graph convolutional network.
"""
