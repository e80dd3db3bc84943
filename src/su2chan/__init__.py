"""Exact and numerical toolkit for component channels of SU(2)
tensor-product decompositions, their covariant symbol calculus, and the
large-level trace limit.  Every name lives in its module, for example
``from su2chan.intertwine import apply_channel``.
"""

__version__ = "1.0.0"
