"""Tests for the multiprocess sweep executor (``repro.exec``)."""
