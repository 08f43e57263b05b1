"""Closed-loop benchmark of the telemetry pipeline (see ``run.py``)."""
