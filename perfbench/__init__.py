"""entlm benchmark: seeded pretrain and probe-eval workloads (see README.md)."""
