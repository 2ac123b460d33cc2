"""Deterministic simulator of enclave sharing across containers: an SGX-style
memory/thread model, an untrusted kernel, an in-enclave runtime, and a
calibrated cost model driving serverless and database experiments."""

__all__ = [
    "cost_model",
    "enclave_runtime",
    "errors",
    "host_kernel",
    "security",
    "sgx_core",
    "workload_harness",
]
