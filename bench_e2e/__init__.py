"""bench_e2e: the repository's socket-to-response benchmark (see README.md)."""
