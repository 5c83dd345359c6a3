"""Group-invariant Butson Hadamard matrices: construction and exact verification.

The names in ``__all__`` are imported from their submodules on first access
(PEP 562), so ``import butson`` alone loads neither numpy nor any submodule.
"""

# submodule -> the names it exports here
_EXPORTS = {
    "cyclotomic": ("CycInt", "cyclotomic_poly", "is_zero"),
    "groups": ("FiniteGroup", "GroupRingElt", "Unimodular", "make_abelian", "make_cyclic", "make_from_table", "make_semidirect"),
    "rings": ("ChainRing", "chain_ring"),
    "verify": ("BhMatrix", "VerifyReport", "materialize", "verify_bh", "verify_group_ring"),
    "arrays": ("PerfectArray", "to_array", "verify_perfect"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
