"""Tests for the generic named-strategy Registry."""

import pytest

from repro.core.registry import Registry
from repro.exceptions import ConfigurationError
from repro.perf import count_admitted
from repro.shaping import RunConfig


class TestRegistration:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg.names() == ("a",)
        assert "a" in reg and "b" not in reg

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fn")
        def factory():
            return 42

        assert reg.get("fn") is factory

    def test_reregistering_replaces(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2)
        assert reg.get("a") == 2
        assert reg.names() == ("a",)

    def test_names_are_normalized(self):
        reg = Registry("widget")
        reg.register("  MiXeD ", 7)
        assert reg.get("mixed") == 7

    def test_get_unknown_lists_choices(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        with pytest.raises(ConfigurationError, match=r"unknown widget 'z'.*\['a', 'b'\]"):
            reg.get("z")

    def test_iteration_follows_registration(self):
        reg = Registry("widget")
        reg.register("b", 2)
        reg.register("a", 1)
        assert list(reg) == ["b", "a"]
        assert reg.names() == ("b", "a")


class TestNoSelection:
    """A registry maps names to values; which one a run uses is its argument."""

    def test_nothing_selects_an_entry(self):
        for option in ("env_var", "default", "virtual"):
            with pytest.raises(TypeError):
                Registry("widget", **{option: None})
        reg = Registry("widget")
        for chain in ("resolve", "override", "set_override", "use"):
            assert not hasattr(reg, chain)

    def test_auto_never_satisfies_get(self):
        """``auto`` is a rule of the kernel and engine arguments, not an entry."""
        from repro.perf import kernels
        from repro.perf.engines import ENGINES

        assert "auto" not in kernels.REGISTRY and "auto" not in ENGINES
        with pytest.raises(ConfigurationError, match="unknown kernel backend 'auto'"):
            kernels.REGISTRY.get("auto")
        assert count_admitted([0.0], [1], 1.0, 1.0, backend="auto") == 1
        assert RunConfig(1.0, 0.0, 1.0, engine="auto").engine == "auto"


class TestUnifiedFrontends:
    """Kernel backends, window policies and schedulers share one Registry."""

    def test_kernels_windows_policies_are_registries(self):
        from repro.perf import kernels
        from repro.sched import registry as sched
        from repro.server import aqm

        assert isinstance(kernels.REGISTRY, Registry)
        assert isinstance(aqm.REGISTRY, Registry)
        assert isinstance(sched.REGISTRY, Registry)

    def test_policy_names_still_exported(self):
        from repro.sched.registry import (
            ALL_POLICIES,
            REGISTRY,
            SINGLE_SERVER_POLICIES,
        )

        assert set(REGISTRY.names()) == set(SINGLE_SERVER_POLICIES)
        # Split is a topology, not a registered scheduler factory.
        assert "split" in ALL_POLICIES and "split" not in REGISTRY

    def test_engines_are_named_once(self):
        from repro.perf.engines import ENGINES

        assert ENGINES == ("scalar",)
