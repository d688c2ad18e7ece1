"""The two-way sandbox: AccTEE's user-facing API (paper Figs. 1-3).

:class:`TwoWaySandbox` wires the whole protocol together for the two
parties:

1. the *workload provider* compiles (or supplies) a Wasm module;
2. the instrumentation enclave instruments it and signs evidence;
3. the *infrastructure provider* launches the accounting enclave on an SGX
   platform; both parties remotely attest it (quoting enclave + attestation
   service) and check that the AE's log-signing key is bound into the
   attestation report data;
4. workloads execute inside the sandbox; every invocation appends a signed
   entry to the resource usage log, which either party can verify offline
   and price under the agreed policy.

Example::

    from repro import TwoWaySandbox

    sandbox = TwoWaySandbox.deploy()
    workload = sandbox.submit_minic("int square(int x) { return x * x; }")
    result = workload.invoke("square", 12)
    assert sandbox.verify_log()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.accounting_enclave import (
    AccountingEnclave,
    WorkloadCheckpoint,
    WorkloadResult,
)
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave, InstrumentationEvidence
from repro.core.policy import MemoryPolicy, PricingPolicy
from repro.core.resource_log import ResourceUsageLog, ResourceVector
from repro.instrument.weights import UNIT_WEIGHTS, WeightTable, cycle_weight_table
from repro.obs.trace import span
from repro.sgx.attestation import (
    AttestationError,
    AttestationService,
    QuotingEnclave,
    challenge_enclave,
)
from repro.sgx.enclave import SGXPlatform
from repro.wasm.interpreter import ExecutionLimits
from repro.wasm.module import Module


@dataclass
class SandboxConfig:
    """Deployment knobs for a two-way sandbox."""

    level: str = "loop-based"
    weighted: bool = False  # False: unit weights; True: cycle-calibrated weights
    memory_policy: MemoryPolicy = MemoryPolicy.PEAK
    pricing: PricingPolicy = field(default_factory=PricingPolicy)
    max_instructions: int | None = None  # the sandbox's resource cap
    attestation_nonce: bytes = b"acctee-deploy-nonce"
    engine: str | None = None  # Wasm execution engine (None: compile)

    def weight_table(self) -> WeightTable:
        return cycle_weight_table() if self.weighted else UNIT_WEIGHTS


@dataclass
class Workload:
    """A loaded workload handle bound to one sandbox."""

    sandbox: "TwoWaySandbox"
    module: Module
    evidence: InstrumentationEvidence
    counter_export: str

    def invoke(self, export: str, *args, input_data: bytes = b"", label: str = "") -> WorkloadResult:
        return self.sandbox.ae.invoke(export, *args, input_data=input_data, label=label)


class TwoWaySandbox:
    """An attested deployment of IE + AE on one simulated SGX platform."""

    def __init__(
        self,
        config: SandboxConfig,
        platform: SGXPlatform,
        ie: InstrumentationEnclave,
        ae: AccountingEnclave,
        qe: QuotingEnclave,
        attestation_service: AttestationService,
    ):
        self.config = config
        self.platform = platform
        self.ie = ie
        self.ae = ae
        self.qe = qe
        self.attestation_service = attestation_service
        #: Instrumented-module cache (paper §3.3): resubmitting the same
        #: module skips the IE pass (for the 256 most recently used modules,
        #: the gateway's bound).  Shared-cache deployments (the metering
        #: gateway) swap in their own instance.
        self.cache = InstrumentationCache(ie)

    # -- deployment -------------------------------------------------------------

    @classmethod
    def deploy(
        cls,
        config: SandboxConfig | None = None,
        platform: SGXPlatform | None = None,
        attestation_service: AttestationService | None = None,
    ) -> "TwoWaySandbox":
        """Launch the enclaves, provision attestation and attest the AE.

        Raises :class:`~repro.sgx.attestation.AttestationError` if either
        party would reject the deployment.
        """
        with span("sandbox.deploy"):
            config = config or SandboxConfig()
            platform = platform or SGXPlatform()
            service = attestation_service or AttestationService()
            weight_table = config.weight_table()

            ie = InstrumentationEnclave(weight_table=weight_table, level=config.level)
            platform.launch(ie)
            ae = AccountingEnclave(
                ie_public_key=ie.evidence_public_key,
                ie_measurement=ie.mrenclave,
                weight_table=weight_table,
                memory_policy=config.memory_policy,
                limits=ExecutionLimits(max_instructions=config.max_instructions),
                engine=config.engine,
            )
            platform.launch(ae)
            qe = QuotingEnclave()
            platform.launch(qe)
            service.provision(qe)

            sandbox = cls(config, platform, ie, ae, qe, service)
            if not sandbox.attest(config.attestation_nonce):
                raise AttestationError("accounting enclave failed remote attestation")
            return sandbox

    def attest(self, nonce: bytes) -> bool:
        """Remote-attest the AE and check the log-key binding (both parties)."""
        with span("sandbox.attest", enclave=self.ae.name):
            return challenge_enclave(
                self.ae, self.qe, self.attestation_service, nonce,
                self.ae.report_data_binding(),
            )

    # -- workload intake ------------------------------------------------------------

    def submit_module(self, module: Module) -> Workload:
        """Instrument (cached) and admit a raw WebAssembly module."""
        with span("sandbox.submit"):
            instrumented, evidence, counter_export = self.cache.instrument(module)
            self.ae.load_workload(instrumented, evidence)
        return Workload(
            sandbox=self,
            module=instrumented,
            evidence=evidence,
            counter_export=counter_export,
        )

    def submit_wat(self, source: str) -> Workload:
        from repro.wasm.wat_parser import parse_wat

        return self.submit_module(parse_wat(source))

    def submit_minic(self, source: str) -> Workload:
        from repro.minic import compile_source

        return self.submit_module(compile_source(source))

    # -- snapshot / resume --------------------------------------------------------------

    def snapshot(
        self,
        export: str,
        *args,
        snapshot_at: int,
        input_data: bytes = b"",
        label: str = "",
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Run the loaded workload, suspending at ``snapshot_at`` (see AE docs)."""
        return self.ae.invoke(
            export, *args, input_data=input_data, label=label, snapshot_at=snapshot_at
        )

    def resume(
        self, checkpoint: WorkloadCheckpoint, snapshot_at: int | None = None
    ) -> WorkloadResult | WorkloadCheckpoint:
        """Resume a checkpointed workload (possibly under a different engine)."""
        return self.ae.resume(checkpoint, snapshot_at=snapshot_at)

    # -- accounting ---------------------------------------------------------------------

    @property
    def log(self) -> ResourceUsageLog:
        return self.ae.log

    def verify_log(self) -> bool:
        """Offline verification either party can run on the log."""
        return self.log.verify(self.ae.log_public_key)

    def totals(self) -> ResourceVector:
        return self.log.totals()

    def invoice(self) -> float:
        """Price the log's totals under the configured pricing policy."""
        totals = self.totals()
        return self.config.pricing.price(
            weighted_instructions=totals.weighted_instructions,
            peak_memory_bytes=totals.peak_memory_bytes,
            memory_integral_page_instructions=totals.memory_integral_page_instructions,
            io_bytes=totals.io_bytes_total,
        )
