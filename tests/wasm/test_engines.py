"""The engine registry: one reader for ``REPRO_WASM_ENGINE``, typed errors.

``repro.wasm.engines`` is the single place that knows the engine names and
the selection precedence (explicit argument > environment variable >
:data:`~repro.wasm.engines.FALLBACK_ENGINE`).  These tests pin that
precedence, the call-time (not import-time) environment read, and the
:class:`~repro.wasm.engines.UnknownEngineError` contract — including that it
still satisfies ``except ValueError`` for callers that predate it.
"""

import pytest

import repro.wasm as wasm_pkg
from repro.wasm.engines import (
    ENGINE_ENV_VAR,
    ENGINE_NAMES,
    FALLBACK_ENGINE,
    UnknownEngineError,
    default_engine,
    resolve_engine,
)
from repro.wasm.interpreter import Instance
from repro.wasm.wat_parser import parse_wat

TINY = """
(module
  (func (export "answer") (result i32) (i32.const 42)))
"""


class TestRegistry:
    def test_engine_names_cover_both_engines(self):
        assert ENGINE_NAMES == ("predecode", "compile")
        assert FALLBACK_ENGINE in ENGINE_NAMES

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_explicit_names_resolve_to_themselves(self, name):
        assert resolve_engine(name) == name

    def test_none_resolves_to_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(None) == FALLBACK_ENGINE
        assert default_engine() == FALLBACK_ENGINE

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_env_var_sets_the_default(self, monkeypatch, name):
        monkeypatch.setenv(ENGINE_ENV_VAR, name)
        assert default_engine() == name
        assert resolve_engine(None) == name

    def test_explicit_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "predecode")
        assert resolve_engine("compile") == "compile"

    def test_empty_env_var_means_fallback(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "")
        assert default_engine() == FALLBACK_ENGINE

    def test_env_is_read_at_call_time_not_import_time(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "predecode")
        assert default_engine() == "predecode"
        monkeypatch.setenv(ENGINE_ENV_VAR, "compile")
        assert default_engine() == "compile"

    def test_registry_is_exported_from_the_package(self):
        assert wasm_pkg.ENGINE_NAMES is ENGINE_NAMES
        assert wasm_pkg.resolve_engine is resolve_engine
        assert wasm_pkg.UnknownEngineError is UnknownEngineError


class TestUnknownEngineError:
    def test_bad_explicit_name_raises_typed_error(self):
        with pytest.raises(UnknownEngineError) as exc_info:
            resolve_engine("jit")
        assert exc_info.value.name == "jit"
        assert exc_info.value.source == "engine argument"
        assert "jit" in str(exc_info.value)
        assert "predecode" in str(exc_info.value)

    def test_bad_env_var_raises_with_env_source(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(UnknownEngineError) as exc_info:
            default_engine()
        assert exc_info.value.name == "turbo"
        assert exc_info.value.source == f"${ENGINE_ENV_VAR}"

    def test_subclasses_value_error_for_old_callers(self):
        with pytest.raises(ValueError):
            resolve_engine("jit")

    def test_instance_rejects_bad_engine(self):
        with pytest.raises(UnknownEngineError):
            Instance(parse_wat(TINY), engine="jit")

    def test_instance_rejects_bad_env_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "turbo")
        with pytest.raises(UnknownEngineError):
            Instance(parse_wat(TINY))


class TestInstanceWiring:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_instance_records_resolved_engine(self, name):
        inst = Instance(parse_wat(TINY), engine=name)
        assert inst.engine == name
        assert inst.invoke("answer") == 42

    def test_env_var_selects_instance_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "predecode")
        inst = Instance(parse_wat(TINY))
        assert inst.engine == "predecode"
        assert inst.invoke("answer") == 42

    def test_instance_naming_no_engine_runs_on_compile(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        inst = Instance(parse_wat(TINY))
        assert inst.engine == FALLBACK_ENGINE == "compile"
        assert inst.invoke("answer") == 42

