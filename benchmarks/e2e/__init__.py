"""End-to-end benchmark: host time of the DES and the live port service.

Run ``PYTHONPATH=src python -m benchmarks.e2e.run``; see README.md.
"""
