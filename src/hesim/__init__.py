"""Extended-term hybrid QSS/dynamic power-system simulation on
holomorphic-embedding series."""

__version__ = "0.1.0"
