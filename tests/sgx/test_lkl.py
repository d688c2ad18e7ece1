"""Tests for the SGX-LKL syscall layer."""

from repro.sgx.lkl import (
    EEXIT_EENTER_CYCLES,
    IN_ENCLAVE_SYSCALL_CYCLES,
    SGXLKL,
    SYSCALL_TABLE,
    SyscallClass,
)


def test_memory_syscalls_stay_in_enclave():
    for name in ("mmap", "futex", "brk", "clock_gettime"):
        assert SYSCALL_TABLE[name] is SyscallClass.IN_ENCLAVE


def test_io_syscalls_are_delegated():
    for name in ("read", "write", "socket", "accept"):
        assert SYSCALL_TABLE[name] is SyscallClass.DELEGATED


def test_in_enclave_syscall_avoids_transition():
    lkl = SGXLKL()
    cost = lkl.syscall("futex")
    assert cost == IN_ENCLAVE_SYSCALL_CYCLES
    assert lkl.profile.delegated_calls == 0


def test_delegated_syscall_pays_transition():
    lkl = SGXLKL()
    cost = lkl.syscall("read", payload_bytes=0)
    assert cost >= EEXIT_EENTER_CYCLES
    assert lkl.profile.delegated_calls == 1


def test_unknown_syscall_treated_as_delegated():
    lkl = SGXLKL()
    assert lkl.syscall("ioctl_obscure") >= EEXIT_EENTER_CYCLES


def test_payload_encryption_charged():
    encrypted = SGXLKL(encrypt_io=True).syscall("write", payload_bytes=100_000)
    plain = SGXLKL(encrypt_io=False).syscall("write", payload_bytes=100_000)
    assert encrypted > plain


def test_transition_overhead_accumulates():
    lkl = SGXLKL()
    lkl.syscall("read")
    lkl.syscall("write")
    lkl.syscall("futex")
    assert lkl.transition_overhead_cycles() == 2 * EEXIT_EENTER_CYCLES


def test_profile_counts_by_name():
    lkl = SGXLKL()
    lkl.syscall("read")
    lkl.syscall("read")
    lkl.syscall("close")
    assert lkl.profile.counts == {"read": 2, "close": 1}
