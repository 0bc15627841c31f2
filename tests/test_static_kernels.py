"""The static-layer kernels against the masked and einsum formulations
they replace, bit for bit.

The residual, the axial matrix and the ion tensor run on the whole
difference matrix with an infinite diagonal; the mode tensor is three
matmuls; the catalog reads each kept column once. The references below
are the per-pair masked gathers, the einsum with its fixed path and the
per-element entry construction, kept here as the definition each kernel
must reproduce to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionchain import coupling, equilibrium, modes, resonances
from ionchain.errors import IonChainError
from ionchain.resonances import (COUPLING_FLOOR, FIRST_KIND, MATCH_TOL,
                                 SECOND_KIND, ResonanceEntry)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def sorted_positions(draw, min_size=1, max_size=40):
    """Ascending, pairwise distinct positions, gaps from 1e-3 to 10."""
    n = draw(st.integers(min_size, max_size))
    start = draw(st.floats(-200.0, 0.0))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1,
                         max_size=n - 1))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def _off(n):
    return ~np.eye(n, dtype=bool)


def reference_residual(u):
    diff = u[:, None] - u[None, :]
    off = _off(u.size)
    force = np.zeros_like(diff)
    force[off] = np.sign(diff[off]) / diff[off] ** 2
    return u - force.sum(axis=1)


def reference_axial_matrix(u):
    n = u.size
    diff = u[:, None] - u[None, :]
    off = _off(n)
    inv3 = np.zeros((n, n))
    inv3[off] = np.abs(diff[off]) ** -3
    a = -2.0 * inv3
    np.fill_diagonal(a, 1.0 + 2.0 * inv3.sum(axis=1))
    return a


def reference_ion_tensor(u):
    n = u.size
    diff = u[:, None] - u[None, :]
    off = _off(n)
    w = np.zeros((n, n))
    w[off] = np.sign(-diff[off]) / diff[off] ** 4
    c = np.zeros((n, n, n))
    m, p = np.nonzero(off)
    c[m, m, p] = c[m, p, m] = c[p, m, m] = -w[m, p]
    i = np.arange(n)
    c[i, i, i] = w.sum(axis=1)
    return c


def reference_mode_tensor(ion, vectors):
    v = vectors
    return np.einsum("lmn,lp,mq,nr->pqr", ion, v, v, v,
                     optimize=["einsum_path", (0, 1), (0, 2), (0, 1)])


def reference_catalog(chain, tol=MATCH_TOL):
    """The catalog kernel with each entry built from numpy scalars, as a
    list in (p, m, n) order."""
    span = chain.n_ions - 1
    rows, cols = np.triu_indices(span)
    p = np.repeat(np.arange(2, chain.n_ions + 1), rows.size)
    i = np.tile(rows + 2, span)
    j = np.tile(cols + 2, span)
    mu = chain.probe.mu
    alpha = resonances.candidate_alpha(mu[i - 1], mu[j - 1], mu[p - 1])
    inside = alpha < chain.alpha_crit
    p, i, j, alpha = p[inside], i[inside], j[inside], alpha[inside]
    second, first, residual = resonances._match(mu[i - 1], mu[j - 1],
                                                mu[p - 1], alpha, tol)
    m = np.where(second, j, i)
    n = np.where(second, i, j)
    coupling_ = chain.tensors.mode[m - 1, n - 1, p - 1]
    keep = (second | (first & (i != j))) & (np.abs(coupling_) > COUPLING_FLOOR)
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort((n[kept], m[kept], p[kept]))]
    return [
        ResonanceEntry(
            n_ions=chain.n_ions, m=int(m[k]), n=int(n[k]), p=int(p[k]),
            kind=SECOND_KIND if second[k] else FIRST_KIND,
            alpha_res=float(alpha[k]), coupling=float(coupling_[k]),
            delta_residual=float(residual[k]))
        for k in kept
    ]


@settings(max_examples=200, deadline=None)
@given(u=sorted_positions())
def test_residual_and_axial_matrix_match_the_masked_kernels(u):
    assert same_bits(equilibrium.equilibrium_residual(u),
                     reference_residual(u))
    assert same_bits(modes.axial_matrix(u), reference_axial_matrix(u))


@settings(max_examples=100, deadline=None)
@given(u=sorted_positions(max_size=32), seed=st.integers(0, 2**32 - 1))
def test_tensors_match_the_masked_kernel_and_the_einsum(u, seed):
    ion = coupling.ion_tensor(u)
    assert same_bits(ion, reference_ion_tensor(u))
    if u.size == 1:
        # C = 0, and a lone negative v gives einsum -0.0, the matmuls +0.0;
        # `coupling_tensors` masks that entry to 0.0 either way
        return
    # any vectors will do: the contraction never reads their structure
    vectors = np.random.default_rng(seed).normal(size=(u.size, u.size))
    basis = modes.ModeBasis(mu=np.ones(u.size), gamma=np.ones(u.size),
                            vectors=vectors, alpha=1.0)
    assert same_bits(coupling.mode_tensor(ion, basis),
                     reference_mode_tensor(ion, vectors))


@pytest.mark.parametrize("n", range(2, 33))
def test_chain_tensors_and_catalog_match_the_references(n):
    chain = resonances._memo_chain.__wrapped__(n)
    tensors = chain.tensors
    # the mode tensor of a solved chain: test_coupling.py's path test
    assert same_bits(tensors.ion, reference_ion_tensor(chain.u))
    catalog = resonances._catalog(chain)
    got, want = list(catalog.values()), reference_catalog(chain)
    assert got == want
    assert list(catalog) == [(e.p, min(e.m, e.n), max(e.m, e.n))
                             for e in want]
    for entry, ref in zip(got, want):
        for name, value in vars(ref).items():
            # same type and, for floats, the same bits (-0.0 included)
            assert type(getattr(entry, name)) is type(value)
            assert repr(getattr(entry, name)) == repr(value)


@settings(max_examples=50, deadline=None)
@given(u=sorted_positions(min_size=2, max_size=20), data=st.data())
def test_coincident_ions_keep_their_messages(u, data):
    k = data.draw(st.integers(0, u.size - 2))
    u[k + 1] = u[k]
    with pytest.raises(ValueError) as exc:
        equilibrium.equilibrium_residual(u)
    assert str(exc.value) == ("degenerate configuration: two ions share "
                              "a position")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(IonChainError) as exc:
            coupling.ion_tensor(u)
    assert str(exc.value) == ("cubic tensor construction asymmetric by nan "
                              "under index permutation (0, 2, 1)")
