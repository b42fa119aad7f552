"""The repository benchmark: cold-profile, warm-parallel and service-mix
workloads driving the public ``repro`` API.  Entry point: ``run.py``."""
