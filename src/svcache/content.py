"""Video catalog and demand model.

A catalog holds F files, each encoded into L quality layers.  Quality
level l is delivered as the cumulative "super layer" made of layers
1..l, so its size is the running sum of the individual layer sizes.
Request popularity over files follows a Mandelbrot-Zipf law; the joint
demand over (file, quality) splits each file's popularity between the
lowest quality and the L-1 higher qualities.

File and layer indices are 1-based in every public signature, matching
the usual ranked-catalog convention; storage is 0-based internally.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ContentLibrary",
    "preference_matrix",
    "quality_preference",
    "request_distribution",
    "request_probability",
    "super_layer_size",
    "total_catalog_bits",
]


def _is_count(value) -> bool:
    """An integer that is not a bool (``bool`` is a ``numbers.Integral``)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """A Python or numpy bool, or a bool array (0-d included), which a
    real-valued field rejects although arithmetic would take it as 0 or 1."""
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


@dataclass(frozen=True)
class ContentLibrary:
    """Immutable catalog of ``file_count`` files times ``layer_count`` layers.

    Parameters
    ----------
    file_count : int
        Number of files F, an integer >= 2 (the preference split divides by F-1).
    layer_count : int
        Number of layers L per file, an integer >= 2 (the split divides by L-1).
    layer_sizes : ndarray, shape (F, L)
        Size of each individual layer in bits: finite, strictly positive, not bool.
    skewness : float
        Popularity skewness, finite and >= 0; 0 gives a uniform request law.
    plateau : float
        Popularity plateau, finite and >= 0; 0 reduces to a plain Zipf law.

    Each check raises ``ValueError`` with a message that starts with the
    offending field's name.
    """

    file_count: int
    layer_count: int
    layer_sizes: np.ndarray
    skewness: float = 1.0
    plateau: float = 5.0

    def __post_init__(self):
        for name in ("file_count", "layer_count"):
            value = getattr(self, name)
            if not (_is_count(value) and value >= 2):
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}; "
                                 "the quality preference split divides by it minus 1")
        sizes = np.asarray(self.layer_sizes)
        if _is_bool(sizes):
            raise ValueError("layer_sizes must be real-valued, got dtype bool")
        sizes = sizes.astype(float, order="C")
        if sizes.shape != (self.file_count, self.layer_count):
            raise ValueError(
                f"layer_sizes must have shape {(self.file_count, self.layer_count)}, "
                f"got {sizes.shape}"
            )
        if not np.all((sizes > 0) & (sizes < np.inf)):
            raise ValueError("layer_sizes must be finite and strictly positive")
        for name in ("skewness", "plateau"):
            value = getattr(self, name)
            if _is_bool(value) or not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        sizes.setflags(write=False)
        object.__setattr__(self, "layer_sizes", sizes)

    @classmethod
    def uniform(cls, file_count, layer_count, layer_size_bits=25e6,
                skewness=1.0, plateau=5.0):
        """Catalog with one common size for every layer of every file."""
        if _is_bool(layer_size_bits):
            raise ValueError("layer_sizes must be finite and strictly positive, "
                             f"got {layer_size_bits!r}")
        # a count that is not a positive integer yields an empty array, so
        # the constructor's own count checks report it, not numpy's errors
        shape = (file_count, layer_count)
        sizes = np.full(shape if all(_is_count(n) and n > 0 for n in shape) else (0, 0),
                        float(layer_size_bits))
        return cls(file_count, layer_count, sizes, skewness, plateau)

    @cached_property
    def super_layer_sizes(self) -> np.ndarray:
        """Cumulative layer sizes, shape (F, L): entry (f, l) is the number
        of bits delivered for quality level l of file f."""
        cum = np.cumsum(self.layer_sizes, axis=1)
        cum.setflags(write=False)
        return cum

    @cached_property
    def preference_matrix(self) -> np.ndarray:
        """Joint request probability over (file, quality level), shape
        (F, L), built once per catalog and read-only.

        File f's popularity p(f) is split between the lowest quality, with
        weight (f-1)/(F-1), and the L-1 higher qualities, each with weight
        (F-f)/((F-1)(L-1)).  Row sums telescope back to p(f), so the matrix
        sums to 1.  The most popular file is never requested at the lowest
        quality and the least popular one never above it.
        """
        F, L = self.file_count, self.layer_count
        pf = request_distribution(self)
        ranks = np.arange(1, F + 1, dtype=float)
        out = np.empty((F, L))
        out[:, 0] = pf * (ranks - 1) / (F - 1)
        out[:, 1:] = (pf * (F - ranks) / ((F - 1) * (L - 1)))[:, None]
        out.setflags(write=False)
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.file_count, self.layer_count)


def _check_file_index(lib, f):
    if not (_is_count(f) and 1 <= f <= lib.file_count):
        raise IndexError(f"file index {f} out of range: expected an integer "
                         f"in 1..{lib.file_count}")


def _check_layer_index(lib, l):
    if not (_is_count(l) and 1 <= l <= lib.layer_count):
        raise IndexError(f"layer index {l} out of range: expected an integer "
                         f"in 1..{lib.layer_count}")


def request_distribution(lib: ContentLibrary) -> np.ndarray:
    """Mandelbrot-Zipf request probabilities over files, shape (F,).

    Entry f-1 is (f+q)^(-a) normalized over the catalog, with a the
    skewness and q the plateau.  Sums to 1 by construction.
    """
    ranks = np.arange(1, lib.file_count + 1, dtype=float)
    weights = (ranks + lib.plateau) ** (-lib.skewness)
    return weights / weights.sum()


def request_probability(lib: ContentLibrary, f: int) -> float:
    """Probability that a request targets file ``f`` (1-based)."""
    _check_file_index(lib, f)
    return float(request_distribution(lib)[f - 1])


def preference_matrix(lib: ContentLibrary) -> np.ndarray:
    """Joint request probability over (file, quality level), shape (F, L):
    the catalog's cached, read-only ``ContentLibrary.preference_matrix``."""
    return lib.preference_matrix


def quality_preference(lib: ContentLibrary, f: int, l: int) -> float:
    """Joint probability of requesting quality level ``l`` of file ``f``."""
    _check_file_index(lib, f)
    _check_layer_index(lib, l)
    return float(preference_matrix(lib)[f - 1, l - 1])


def super_layer_size(lib: ContentLibrary, f: int, l: int) -> float:
    """Bits delivered for quality level ``l`` of file ``f`` (layers 1..l)."""
    _check_file_index(lib, f)
    _check_layer_index(lib, l)
    return float(lib.super_layer_sizes[f - 1, l - 1])


def total_catalog_bits(lib: ContentLibrary) -> float:
    """Sum of all super-layer sizes; the cache budget that stores everything."""
    return float(lib.super_layer_sizes.sum())
