"""Wall-clock perf harness: see run_kernel_bench.py and run_parallel_bench.py."""
