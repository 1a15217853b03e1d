"""End-to-end benchmark of the LINX service: see ``perfbench/README.md``."""
