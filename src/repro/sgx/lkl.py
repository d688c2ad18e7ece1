"""SGX-LKL simulation: running a Linux userland inside an enclave (paper §3.4).

SGX-LKL links the Linux Kernel Library into the enclave so most syscalls are
served *inside* the enclave (threading, memory management, signals), while
syscalls needing real external resources (network and disk I/O) are delegated
to the untrusted host through enclave exits — each exit/re-entry pair costs
thousands of cycles, which is what makes I/O-bound workloads (the Fig. 9 echo
function) so much slower under SGX.

The layer also models LKL's block-device encryption: delegated disk I/O pays
an AES-ish per-byte cost inside the enclave before leaving it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SyscallClass(enum.Enum):
    """Where a syscall is served under SGX-LKL."""

    IN_ENCLAVE = "in-enclave"  # served by LKL without leaving the enclave
    DELEGATED = "delegated"  # requires an enclave exit to the host


#: Classification of the syscalls our workloads issue.
SYSCALL_TABLE: dict[str, SyscallClass] = {
    # memory & scheduling: handled by LKL inside the enclave
    "mmap": SyscallClass.IN_ENCLAVE,
    "munmap": SyscallClass.IN_ENCLAVE,
    "brk": SyscallClass.IN_ENCLAVE,
    "futex": SyscallClass.IN_ENCLAVE,
    "clock_gettime": SyscallClass.IN_ENCLAVE,
    "getpid": SyscallClass.IN_ENCLAVE,
    "sched_yield": SyscallClass.IN_ENCLAVE,
    "sigaction": SyscallClass.IN_ENCLAVE,
    # external resources: delegated to the untrusted host
    "read": SyscallClass.DELEGATED,
    "write": SyscallClass.DELEGATED,
    "open": SyscallClass.DELEGATED,
    "close": SyscallClass.DELEGATED,
    "socket": SyscallClass.DELEGATED,
    "connect": SyscallClass.DELEGATED,
    "accept": SyscallClass.DELEGATED,
    "send": SyscallClass.DELEGATED,
    "recv": SyscallClass.DELEGATED,
    "fsync": SyscallClass.DELEGATED,
}

#: Cycle costs of the transition machinery.
EEXIT_EENTER_CYCLES = 9_000.0  # one exit + re-entry round trip
IN_ENCLAVE_SYSCALL_CYCLES = 450.0  # LKL service cost without transition
ENCRYPTION_CYCLES_PER_BYTE = 1.3  # block-device / TLS encryption inside


@dataclass
class SyscallProfile:
    """Accumulated syscall activity of one run."""

    counts: dict[str, int] = field(default_factory=dict)
    delegated_calls: int = 0
    in_enclave_calls: int = 0
    bytes_encrypted: int = 0

    def record(self, name: str, payload_bytes: int = 0) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if SYSCALL_TABLE.get(name, SyscallClass.DELEGATED) is SyscallClass.DELEGATED:
            self.delegated_calls += 1
            self.bytes_encrypted += payload_bytes
        else:
            self.in_enclave_calls += 1


@dataclass
class SGXLKL:
    """The library-OS layer: charges transition and encryption costs."""

    encrypt_io: bool = True
    profile: SyscallProfile = field(default_factory=SyscallProfile)

    def syscall(self, name: str, payload_bytes: int = 0) -> float:
        """Issue one syscall; returns its cycle cost."""
        self.profile.record(name, payload_bytes)
        sclass = SYSCALL_TABLE.get(name, SyscallClass.DELEGATED)
        if sclass is SyscallClass.IN_ENCLAVE:
            return IN_ENCLAVE_SYSCALL_CYCLES
        cycles = EEXIT_EENTER_CYCLES + IN_ENCLAVE_SYSCALL_CYCLES
        if self.encrypt_io and payload_bytes:
            cycles += ENCRYPTION_CYCLES_PER_BYTE * payload_bytes
        return cycles

    def transition_overhead_cycles(self) -> float:
        """Total cycles spent on enclave transitions so far."""
        return self.profile.delegated_calls * EEXIT_EENTER_CYCLES
