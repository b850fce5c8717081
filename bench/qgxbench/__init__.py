"""qgx benchmark: workloads, independent checks and per-layer tracing."""
