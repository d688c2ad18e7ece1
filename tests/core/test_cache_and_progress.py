"""Tests for the instrumentation cache (§3.3) and periodic progress reports."""

import pytest

from repro.core.accounting_enclave import AccountingEnclave
from repro.core.cache import InstrumentationCache
from repro.core.instrumentation_enclave import InstrumentationEnclave, verify_evidence
from repro.minic import compile_source
from repro.wasm.binary import encode_module
from repro.wasm.interpreter import Instance


@pytest.fixture(scope="module")
def ie():
    return InstrumentationEnclave(level="loop-based")


LOOPY = """
int f(int n) {
    int t = 0;
    for (int i = 0; i < n; i = i + 1) t = t + i;
    return t;
}
"""


class TestInstrumentationCache:
    def test_first_call_misses_then_hits(self, ie):
        cache = InstrumentationCache(ie)
        module = compile_source(LOOPY)
        cache.instrument(module)
        assert cache.misses == 1 and cache.hits == 0
        cache.instrument(module)
        assert cache.misses == 1 and cache.hits == 1
        assert len(cache) == 1

    def test_cached_output_is_byte_identical(self, ie):
        cache = InstrumentationCache(ie)
        module = compile_source(LOOPY)
        first, ev1, _ = cache.instrument(module)
        second, ev2, _ = cache.instrument(module)
        assert encode_module(first) == encode_module(second)
        assert ev1 == ev2

    def test_cached_evidence_still_verifies(self, ie):
        cache = InstrumentationCache(ie)
        module = compile_source(LOOPY)
        instrumented, evidence, _ = cache.instrument(module)
        assert verify_evidence(evidence, instrumented, ie.evidence_public_key, ie.mrenclave)

    def test_different_modules_get_different_entries(self, ie):
        cache = InstrumentationCache(ie)
        cache.instrument(compile_source(LOOPY))
        cache.instrument(compile_source("int g(void) { return 3; }"))
        assert len(cache) == 2

    def test_mutating_returned_module_does_not_poison_cache(self, ie):
        cache = InstrumentationCache(ie)
        module = compile_source(LOOPY)
        first, _, _ = cache.instrument(module)
        first.funcs[0].body.clear()  # vandalise the returned copy
        second, evidence, _ = cache.instrument(module)
        assert verify_evidence(evidence, second, ie.evidence_public_key, ie.mrenclave)

    def test_cached_module_executes(self, ie):
        cache = InstrumentationCache(ie)
        instrumented, _, counter_export = cache.instrument(compile_source(LOOPY))
        instance = Instance(instrumented)
        assert instance.invoke("f", 10) == 45
        assert instance.global_value(counter_export) > 0


class TestCacheBounds:
    def _sources(self, n):
        return [f"int f{i}(void) {{ return {i}; }}" for i in range(n)]

    def test_lru_eviction_under_churn(self, ie):
        cache = InstrumentationCache(ie, max_entries=2)
        for src in self._sources(4):
            cache.instrument(compile_source(src))
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["misses"] == 4
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2

    def test_hit_refreshes_recency(self, ie):
        cache = InstrumentationCache(ie, max_entries=2)
        a, b, c = (compile_source(src) for src in self._sources(3))
        cache.instrument(a)
        cache.instrument(b)
        cache.instrument(a)  # a becomes most recently used
        cache.instrument(c)  # evicts b, not a
        assert cache.stats()["evictions"] == 1
        cache.instrument(a)  # still cached
        assert cache.misses == 3
        assert cache.hits == 2

    def test_evicted_entry_is_reinstrumented_on_return(self, ie):
        cache = InstrumentationCache(ie, max_entries=1)
        a, b = (compile_source(src) for src in self._sources(2))
        cache.instrument(a)
        cache.instrument(b)  # evicts a
        cache.instrument(a)  # miss again
        assert cache.misses == 3
        assert cache.stats()["evictions"] == 2

    def test_hit_count_survives_eviction(self, ie):
        cache = InstrumentationCache(ie, max_entries=1)
        a, b = (compile_source(src) for src in self._sources(2))
        cache.instrument(a)
        cache.instrument(a)
        cache.instrument(b)  # evicts a, whose hit must not vanish
        assert cache.hits == 1
        assert cache.stats()["hit_rate"] == pytest.approx(1 / 3)

    def test_bounded_at_256_by_default(self, ie):
        cache = InstrumentationCache(ie)
        for src in self._sources(5):
            cache.instrument(compile_source(src))
        assert len(cache) == 5
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["max_entries"] == 256

    def test_rejects_nonpositive_bound(self, ie):
        with pytest.raises(ValueError):
            InstrumentationCache(ie, max_entries=0)


class TestProgressReports:
    def test_periodic_entries_appended(self, ie):
        ae = AccountingEnclave(
            ie_public_key=ie.evidence_public_key,
            ie_measurement=ie.mrenclave,
            weight_table=ie.weight_table,
        )
        result, evidence = ie.instrument(compile_source(LOOPY))
        ae.load_workload(result.module, evidence)
        outcome = ae.invoke("f", 200, progress_interval=500)
        assert not outcome.trapped
        labels = [e.vector.label for e in ae.log.entries]
        progress = [l for l in labels if l.startswith("progress:")]
        assert len(progress) >= 2
        assert labels[-1] == "f"  # the final billing entry comes last
        assert ae.log.verify(ae.log_public_key)

    def test_no_interval_no_interim_entries(self, ie):
        ae = AccountingEnclave(
            ie_public_key=ie.evidence_public_key,
            ie_measurement=ie.mrenclave,
            weight_table=ie.weight_table,
        )
        result, evidence = ie.instrument(compile_source(LOOPY))
        ae.load_workload(result.module, evidence)
        ae.invoke("f", 200)
        assert len(ae.log.entries) == 1

    def test_progress_entries_carry_no_billing(self, ie):
        ae = AccountingEnclave(
            ie_public_key=ie.evidence_public_key,
            ie_measurement=ie.mrenclave,
            weight_table=ie.weight_table,
        )
        result, evidence = ie.instrument(compile_source(LOOPY))
        ae.load_workload(result.module, evidence)
        with_progress = ae.invoke("f", 200, progress_interval=300)
        totals = ae.log.totals()
        assert totals.weighted_instructions == with_progress.vector.weighted_instructions
