"""The repository benchmark: three workloads, end-to-end and per-layer metrics."""
