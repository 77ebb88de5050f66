"""End-to-end and per-layer benchmark of the ``repro`` program (see README.md)."""
