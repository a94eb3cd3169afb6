"""corrdecay benchmark harness: workloads, timing, tracing and reference checks."""
