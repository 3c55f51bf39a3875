"""Commit-path benchmark for :class:`repro.active.ActiveDatabase` (see ``run.py``)."""
