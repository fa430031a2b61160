"""Decide, construct, and certify spectra and frame spectra of measures."""

__version__ = "0.1.0"
