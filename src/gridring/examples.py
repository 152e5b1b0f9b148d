"""Built-in example complexes over F2[U,V]."""

from .complexes import FUVComplex


def example_zhou(n):
    """Three-generator surgery family: d(x0) = U^(n-1)V^n y, d(x1) = U^n V^(n-1) y."""
    if n < 2:
        raise ValueError("example_zhou needs n >= 2")
    gens = (
        ("x0", (2, 0)),
        ("x1", (0, 2)),
        ("y", (2 * n - 1, 2 * n - 1)),
    )
    diff = {
        (0, 2): frozenset([(n - 1, n)]),
        (1, 2): frozenset([(n, n - 1)]),
    }
    return FUVComplex(gens, diff)


def example_cable():
    """Five-generator cable-core complex: d(F) = UVE, d(G) = UE + VJ, d(K) = UVJ."""
    gens = (
        ("E", (1, -1)),
        ("F", (0, -2)),
        ("G", (0, 0)),
        ("J", (-1, 1)),
        ("K", (-2, 0)),
    )
    diff = {
        (1, 0): frozenset([(1, 1)]),
        (2, 0): frozenset([(1, 0)]),
        (2, 3): frozenset([(0, 1)]),
        (4, 3): frozenset([(1, 1)]),
    }
    return FUVComplex(gens, diff)
