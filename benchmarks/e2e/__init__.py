"""End-to-end serving benchmark: four FaaS workloads driven through one
live ``MeteringGateway``, with tenant/provider metrics and a traced
per-layer breakdown.  See ``README.md`` and ``run.py``."""
