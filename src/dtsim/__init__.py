"""Fee-driven dynamic block-space simulation and strategy optimization."""

__version__ = "0.1.0"
