"""The consolidated public facade (repro.api); the old deep spellings
are gone."""

import inspect
import warnings

import pytest

import repro
import repro.api
from repro.apps.counter import SOURCE as COUNTER

FACADE_NAMES = (
    "Journal", "LiveSession", "Runtime", "SessionHost", "Tracer"
)

DEEP_HOMES = {
    "LiveSession": "repro.live",
    "Runtime": "repro.system",
    "SessionHost": "repro.serve",
    "Journal": "repro.resilience",
    "Tracer": "repro.obs",
}

DEFINING_MODULES = {
    "LiveSession": "repro.live.session",
    "Runtime": "repro.system.runtime",
    "SessionHost": "repro.serve.host",
    "Journal": "repro.resilience.journal",
    "Tracer": "repro.obs.trace",
}


class TestFacadeSurface:
    def test_all_is_explicit_and_sorted(self):
        assert repro.api.__all__ == sorted(repro.api.__all__)
        for name in FACADE_NAMES + ("EditResult",):
            assert name in repro.api.__all__
            assert hasattr(repro.api, name)

    def test_top_level_package_reexports_the_facade(self):
        for name in FACADE_NAMES:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_facade_classes_are_the_real_types(self):
        # The facade re-exports the defining classes; it declares none.
        import importlib

        for name in FACADE_NAMES:
            deep = getattr(
                importlib.import_module(DEFINING_MODULES[name]), name
            )
            assert getattr(repro.api, name) is deep

    def test_constructors_are_keyword_only(self):
        for name in FACADE_NAMES:
            signature = inspect.signature(getattr(repro.api, name))
            kinds = {
                parameter.kind
                for parameter in signature.parameters.values()
            }
            assert inspect.Parameter.VAR_KEYWORD not in kinds
            positional = [
                parameter
                for parameter in signature.parameters.values()
                if parameter.kind
                is inspect.Parameter.POSITIONAL_OR_KEYWORD
            ]
            # At most the single required subject (source / code / dir).
            assert len(positional) <= 1

    def test_options_cannot_be_passed_positionally(self):
        with pytest.raises(TypeError):
            repro.api.LiveSession(COUNTER, None)
        with pytest.raises(TypeError):
            repro.api.Tracer([])
        with pytest.raises(TypeError):
            repro.api.SessionHost(16)

    def test_facade_session_works(self):
        session = repro.api.LiveSession(COUNTER)
        assert "count" in session.screenshot()

    @pytest.mark.parametrize("name, args, knob", [
        ("LiveSession", (COUNTER,), "reuse_boxes"),
        ("LiveSession", (COUNTER,), "memo_render"),
        ("Runtime", (None,), "reuse_boxes"),
        ("Runtime", (None,), "memo_render"),
        ("SessionHost", (), "backend"),
    ])
    def test_deleted_knobs_are_rejected(self, name, args, knob):
        with pytest.raises(TypeError):
            getattr(repro.api, name)(*args, **{knob: True})


class TestDeprecationShims:
    @pytest.mark.parametrize("name", FACADE_NAMES)
    def test_old_deep_import_raises_attribute_error(self, name):
        import importlib

        package = importlib.import_module(DEEP_HOMES[name])
        with pytest.raises(AttributeError):
            getattr(package, name)
        assert name not in package.__all__

    def test_defining_module_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.live.session import LiveSession  # noqa: F401
            from repro.obs.trace import Tracer  # noqa: F401

    def test_facade_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.api import LiveSession, Tracer  # noqa: F401
            assert repro.LiveSession is LiveSession

    def test_unknown_attribute_still_raises(self):
        import repro.live

        with pytest.raises(AttributeError):
            repro.live.NoSuchThing
