"""End-to-end and per-layer benchmark of the simulated store (see README.md)."""
