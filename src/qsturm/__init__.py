"""Quasi-Sturmian potentials: words, trace maps, and spectra of discrete
one-dimensional Schrodinger operators.

Importing the package registers every module in sys.modules and as an
attribute here, but runs a module's body only when one of its attributes is
first read, so a command pays only for the modules it uses. The public names
below resolve through their module on first access.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the public names it defines, read here by __getattr__
_PUBLIC = {
    "contfrac": "ContinuedFraction approximants density_score expand value",
    "words": "ModelSpec Substitution Word characteristic_prefix complexity find_squares "
             "level_words_prime palindrome_split qs_prefix reflect reflect_subst sturmian_levels substitute",
    "decompose": "Decomposition RauzyGraph cassaigne_decompose detect_qs rauzy_graph rotation_number "
                 "special_factors",
    "tracemap": "OrbitVerdict TraceTriple chebyshev classify_orbit generators in_escape invariant orbit_trace step",
    "transfer": "GrowthExponents SolutionSegment gordon_residual growth_exponents initial_triple level_matrices "
                "local_matrix local_norm lyapunov solve word_matrix",
    "spectrum": "BandList finite_eigenvalues measure_report periodic_bands stable_set",
    "errors": "",
    "window": "",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted([*_PUBLIC, *_HOME])

for _name in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(__all__ + [k for k in globals() if k.startswith("__")])
