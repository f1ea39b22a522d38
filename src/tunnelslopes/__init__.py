"""Exact slope and binary invariants of knot tunnels built from twisted
splittings of torus knots, with a 2-bridge continued-fraction crosswalk.

Names load on first use: reading one imports the submodule that owns it and
looks it up there on every read, storing nothing here, so a rebinding shows.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_OWNERS = {
    "FareyFrame": "frames",
    "SplitKind": "frames",
    "splitting_tunnel_slope": "frames",
    "validate_frame": "frames",
    "EngineMismatchError": "iteration",
    "SequenceKind": "iteration",
    "TwistSequence": "iteration",
    "assemble_invariants": "iteration",
    "closed_form_slopes": "iteration",
    "oracle_slopes": "iteration",
    "SimpleSlope": "slopes",
    "Slope": "slopes",
    "TunnelInvariants": "slopes",
    "CorrespondenceReport": "two_bridge",
    "TwoBridgeFraction": "two_bridge",
    "cf_to_twists": "two_bridge",
    "semisimple_slopes": "two_bridge",
    "twists_to_cf": "two_bridge",
    "validate_cf": "two_bridge",
    "verify_correspondence": "two_bridge",
}

__all__ = sorted(_OWNERS)

# the submodules, each imported on first read as an attribute of the package
_MODULES = ("catalog", "cli", "frames", "iteration", "slopes", "two_bridge", "verify")


def __getattr__(name: str):
    from importlib import import_module

    if name in _OWNERS:
        return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNERS, *_MODULES})
