"""
Compound admittance algebra - assembly, Kron reduction, hybrid parameters.

Proves:
 Group 1 - Incidence and stamps
   1.  Two-node incidence is [[1, -1]]; polyphase form is its Kronecker lift
   2.  Plain branch stamp is [[y, -y], [-y, y]] with y = z^-1
   3.  Transformer stamp carries the gain as [[g^2 y, -g y], [-g y, y]]
   4.  Singular, near-singular or non-finite series impedance raises
       SingularBranch

 Group 2 - Assembly
   5.  Two-node Y superposes stamp, pi shunts, and node shunts exactly
   6.  Assembled Y satisfies KCL against per-branch physics on random grids
   7.  Assembled Y is symmetric (gains included)
   8.  Asymmetric branch impedance raises AsymmetricParameter
   9.  validate_parameters flags asymmetric / indefinite / singular elements;
       at the edges of the passivity rule a branch impedance, a pi shunt and
       a node shunt are judged alike, and assembly rejects exactly the
       asymmetric ones
   9a. An inf or nan impedance, pi shunt or node shunt is reported as
       non-finite, with no warning
  10.  A healthy random grid validates clean

 Group 3 - Kron reduction
  11.  Empty elimination set returns the matrix unchanged
  12.  Series ladder reduces to the textbook y1 y2 / (y1 + y2)
  13.  One-shot elimination equals sequential elimination
  14.  Reduction preserves terminal behavior when eliminated injections are 0
  15.  Eliminating everything / unknown nodes raises ValueError

 Group 4 - Hybrid parameters
  16.  2x2 integer example: blocks (0.5, 0.5, -0.5, 1.5)
  17.  Hybrid relations V_M = h_mm I_M + h_mmc V_Mc and
       I_Mc = h_mcm I_M + h_mcmc V_Mc hold on random grids
  18.  Empty M raises ValueError
  18a. Kron and hybrid reject an exactly singular, a near-singular and a
       non-finite interior block with SingularInteriorBlock, and so does
       reduce_augmented, with Y_UU dense or sparse, when the bad block is
       coupled to the resource nodes

 Group 5 - Block addressing
  19.  block / row_slice / row_indices / submatrix agree with raw offsets
  20.  data is read-only; a caller's array is copied and left writable,
       an array the library builds is taken over without a copy
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_array

from conftest import PASSIVITY_EDGES, random_system
from polyvsi.blocks import BlockMatrix
from polyvsi.errors import AsymmetricParameter, SingularBranch, SingularInteriorBlock
from polyvsi.grid import (
    Branch,
    GridModel,
    Node,
    Shunt,
    assemble_admittance,
    branch_stamp,
    build_incidence,
    hybrid_partition,
    kron_reduce,
    validate_parameters,
)
from polyvsi.vsi import AugmentedGrid, reduce_augmented, te_node


# Blocks every condition check must reject: exactly singular, singular up
# to rounding (reciprocal condition number about 3e-16), and non-finite.
BAD_BLOCKS = {
    "singular": np.ones((2, 2), dtype=complex),
    "near-singular": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]], dtype=complex),
    "inf": np.array([[1.0, np.inf], [np.inf, 1.0]], dtype=complex),
}


def _two_node_grid(p=1, z=None, **branch_kw):
    if z is None:
        z = (0.5 + 0.1j) * np.eye(p)
    return GridModel(
        nodes=(Node(1, "slack", vnom=1000.0), Node(2, "resource", vnom=1000.0)),
        branches=(Branch(1, 2, z, **branch_kw),),
        p=p,
    )


# -- Group 1 ---------------------------------------------------------------


def test_incidence_two_node():
    grid = _two_node_grid(p=3, z=(0.5 + 0.1j) * np.eye(3))
    a = build_incidence(grid)
    assert a.shape == (1, 2)
    assert np.array_equal(a, [[1.0, -1.0]])
    ap = build_incidence(grid, polyphase=True)
    assert np.array_equal(ap, np.kron(a, np.eye(3)))


def test_branch_stamp_plain():
    z = np.array([[0.4 + 0.9j, 0.1 + 0.3j], [0.1 + 0.3j, 0.5 + 0.8j]])
    y = np.linalg.inv(z)
    stamp = branch_stamp(Branch(1, 2, z))
    assert np.allclose(stamp[:2, :2], y, rtol=0, atol=1e-14)
    assert np.allclose(stamp[:2, 2:], -y, rtol=0, atol=1e-14)
    assert np.allclose(stamp[2:, :2], -y, rtol=0, atol=1e-14)
    assert np.allclose(stamp[2:, 2:], y, rtol=0, atol=1e-14)


def test_branch_stamp_transformer_gain():
    z = np.array([[0.2 + 0.6j]])
    g = 1.05 * 24.9 / 69.0
    y = 1.0 / z[0, 0]
    stamp = branch_stamp(Branch(1, 2, z, gain=g))
    assert np.isclose(stamp[0, 0], g * g * y)
    assert np.isclose(stamp[0, 1], -g * y)
    assert np.isclose(stamp[1, 0], -g * y)
    assert np.isclose(stamp[1, 1], y)


def test_branch_stamp_singular_raises():
    with pytest.raises(SingularBranch):
        branch_stamp(Branch(1, 2, np.ones((3, 3), dtype=complex)))
    for z in BAD_BLOCKS.values():
        with pytest.raises(SingularBranch):
            branch_stamp(Branch(1, 2, z))


# -- Group 2 ---------------------------------------------------------------


def test_assemble_two_node_superposition():
    p = 2
    z = np.array([[0.5 + 1.0j, 0.1 + 0.2j], [0.1 + 0.2j, 0.6 + 0.9j]])
    ysf = 1e-5j * np.eye(p)
    yst = 2e-5j * np.eye(p)
    ysh = 3e-5j * np.eye(p)
    grid = GridModel(
        nodes=(Node(1, "slack", vnom=1.0), Node(2, "resource", vnom=1.0)),
        branches=(Branch(1, 2, z, y_shunt_from=ysf, y_shunt_to=yst),),
        shunts=(Shunt(2, ysh),),
        p=p,
    )
    yb = np.linalg.inv(z)
    ym = assemble_admittance(grid)
    assert ym.row_nodes == (1, 2)
    assert np.allclose(ym.block(1, 1), yb + ysf, atol=1e-15)
    assert np.allclose(ym.block(1, 2), -yb, atol=1e-15)
    assert np.allclose(ym.block(2, 1), -yb, atol=1e-15)
    assert np.allclose(ym.block(2, 2), yb + yst + ysh, atol=1e-15)


def test_assembly_kcl_oracle_random():
    # nodal injections from Y@V must match per-branch current bookkeeping
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid, _, _ = random_system(rng)
        p = grid.p
        y = assemble_admittance(grid)
        n = len(grid.node_ids)
        v = rng.standard_normal(n * p) + 1j * rng.standard_normal(n * p)
        inj = np.zeros(n * p, dtype=complex)
        sl = {node: y.row_slice(node) for node in grid.node_ids}
        for b in grid.branches:
            yb = np.linalg.inv(b.z)
            vf, vt = v[sl[b.from_node]], v[sl[b.to_node]]
            inj[sl[b.from_node]] += b.gain * yb @ (b.gain * vf - vt)
            inj[sl[b.to_node]] += yb @ (vt - b.gain * vf)
            if b.y_shunt_from is not None:
                inj[sl[b.from_node]] += b.y_shunt_from @ vf
            if b.y_shunt_to is not None:
                inj[sl[b.to_node]] += b.y_shunt_to @ vt
        for s in grid.shunts:
            inj[sl[s.node]] += s.y @ v[sl[s.node]]
        ref = y.data @ v
        assert np.linalg.norm(inj - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_assembled_matrix_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        grid, _, _ = random_system(rng)
        y = assemble_admittance(grid).data
        assert np.linalg.norm(y - y.T) <= 1e-12 * np.linalg.norm(y)


def test_asymmetric_branch_raises():
    z = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    grid = _two_node_grid(p=2, z=z)
    with pytest.raises(AsymmetricParameter):
        assemble_admittance(grid)


def _carriers(m):
    """Two-node grids carrying the 2 x 2 matrix m, keyed by element kind."""
    return {
        "impedance": _two_node_grid(p=2, z=m),
        "from-shunt": _two_node_grid(p=2, y_shunt_from=m),
        "to-shunt": _two_node_grid(p=2, y_shunt_to=m),
        "node-shunt": replace(_two_node_grid(p=2), shunts=(Shunt(2, m),)),
    }


def test_validate_parameters_flags():
    z_asym = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    z_indef = np.array([[-1.0 + 0.5j, 0.0], [0.0, 1.0 + 0.5j]])
    z_sing = np.ones((2, 2), dtype=complex)
    grid = GridModel(
        nodes=tuple(Node(i, "zero" if i > 1 else "slack", vnom=1.0) for i in range(1, 5)),
        branches=(Branch(1, 2, z_asym), Branch(2, 3, z_indef), Branch(3, 4, z_sing)),
        p=2,
    )
    kinds = {(v.kind, v.element.split()[1]) for v in validate_parameters(grid)}
    assert kinds == {("asymmetric", "1-2"), ("indefinite-real-part", "2-3"), ("singular", "3-4")}
    for m, kind in PASSIVITY_EDGES:
        for g in _carriers(m).values():
            assert [v.kind for v in validate_parameters(g)] == ([kind] if kind else [])
            if kind == "asymmetric":
                with pytest.raises(AsymmetricParameter, match="not symmetric within tolerance 1e-09"):
                    assemble_admittance(g)
            else:
                assemble_admittance(g)


def test_validate_parameters_non_finite():
    for bad in (np.inf, np.nan):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for where, g in _carriers(m).items():
            (v,) = validate_parameters(g)
            assert v.kind == "non-finite"
            assert v.element == ("shunt at 2" if where == "node-shunt" else f"branch 1-2 {where}")


def test_validate_parameters_clean_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        grid, _, _ = random_system(rng)
        assert validate_parameters(grid) == []


# -- Group 3 ---------------------------------------------------------------


def test_kron_empty_set_identity():
    grid = _two_node_grid()
    y = assemble_admittance(grid)
    reduced = kron_reduce(y, set())
    assert reduced.row_nodes == y.row_nodes
    assert np.array_equal(reduced.data, y.data)


def test_kron_series_ladder():
    z1, z2 = 0.5 + 1.0j, 0.25 + 0.75j
    grid = GridModel(
        nodes=(Node(1, "slack", vnom=1.0), Node(2, "zero", vnom=1.0),
               Node(3, "resource", vnom=1.0)),
        branches=(Branch(1, 2, [[z1]]), Branch(2, 3, [[z2]])),
        p=1,
    )
    y1, y2 = 1.0 / z1, 1.0 / z2
    ye = y1 * y2 / (y1 + y2)
    reduced = kron_reduce(assemble_admittance(grid), {2})
    assert reduced.row_nodes == (1, 3)
    assert np.allclose(reduced.data, [[ye, -ye], [-ye, ye]], atol=1e-14)


def test_kron_sequential_matches_oneshot():
    rng = np.random.default_rng(17)
    done = 0
    while done < 12:
        grid, _, _ = random_system(rng, n_nodes=6)
        zero = list(grid.zero_nodes)
        if len(zero) < 2:
            continue
        y = assemble_admittance(grid)
        oneshot = kron_reduce(y, set(zero))
        seq = y
        for node in zero:
            seq = kron_reduce(seq, {node})
        assert seq.row_nodes == oneshot.row_nodes
        err = np.linalg.norm(seq.data - oneshot.data)
        assert err <= 1e-10 * max(np.linalg.norm(oneshot.data), 1.0)
        done += 1


def test_kron_preserves_terminal_behavior():
    # with I_Z = 0, currents at kept nodes from the full and reduced systems agree
    rng = np.random.default_rng(19)
    done = 0
    while done < 12:
        grid, _, _ = random_system(rng, n_nodes=5)
        zero = set(grid.zero_nodes)
        if not zero:
            continue
        y = assemble_admittance(grid)
        keep = [n for n in y.row_nodes if n not in zero]
        reduced = kron_reduce(y, zero)
        ki = y.row_indices(keep)
        zi = y.row_indices(list(zero))
        v_c = rng.standard_normal(ki.size) + 1j * rng.standard_normal(ki.size)
        v_z = np.linalg.solve(y.data[np.ix_(zi, zi)], -y.data[np.ix_(zi, ki)] @ v_c)
        i_c = y.data[np.ix_(ki, ki)] @ v_c + y.data[np.ix_(ki, zi)] @ v_z
        i_red = reduced.data @ v_c
        assert np.linalg.norm(i_red - i_c) <= 1e-9 * max(np.linalg.norm(i_c), 1.0)
        done += 1


def test_kron_rejects_bad_sets():
    y = assemble_admittance(_two_node_grid())
    with pytest.raises(ValueError):
        kron_reduce(y, {1, 2})
    with pytest.raises(ValueError):
        kron_reduce(y, {99})


# -- Group 4 ---------------------------------------------------------------


def test_hybrid_two_by_two_example():
    y = BlockMatrix(np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=complex), (1, 2), (1, 2), 1)
    h = hybrid_partition(y, {2})
    assert h.m_nodes == (2,)
    assert h.mc_nodes == (1,)
    assert np.isclose(h.h_mm.data[0, 0], 0.5)
    assert np.isclose(h.h_mmc.data[0, 0], 0.5)
    assert np.isclose(h.h_mcm.data[0, 0], -0.5)
    assert np.isclose(h.h_mcmc.data[0, 0], 1.5)


def test_hybrid_relations_random():
    rng = np.random.default_rng(23)
    done = 0
    while done < 12:
        grid, _, _ = random_system(rng)
        m = set(grid.resource_nodes)
        if not m or len(m) == len(grid.node_ids):
            continue
        y = assemble_admittance(grid)
        h = hybrid_partition(y, m)
        mi = y.row_indices(h.m_nodes)
        ci = y.row_indices(h.mc_nodes)
        i_m = rng.standard_normal(mi.size) + 1j * rng.standard_normal(mi.size)
        v_c = rng.standard_normal(ci.size) + 1j * rng.standard_normal(ci.size)
        # ground truth straight from the admittance partition
        v_m = np.linalg.solve(y.data[np.ix_(mi, mi)],
                              i_m - y.data[np.ix_(mi, ci)] @ v_c)
        i_c = y.data[np.ix_(ci, ci)] @ v_c + y.data[np.ix_(ci, mi)] @ v_m
        v_m_h = h.h_mm.data @ i_m + h.h_mmc.data @ v_c
        i_c_h = h.h_mcm.data @ i_m + h.h_mcmc.data @ v_c
        assert np.linalg.norm(v_m_h - v_m) <= 1e-10 * max(np.linalg.norm(v_m), 1.0)
        assert np.linalg.norm(i_c_h - i_c) <= 1e-10 * max(np.linalg.norm(i_c), 1.0)
        done += 1


def test_hybrid_empty_m_raises():
    y = assemble_admittance(_two_node_grid())
    with pytest.raises(ValueError):
        hybrid_partition(y, set())


@pytest.mark.parametrize("name", sorted(BAD_BLOCKS))
def test_interior_block_condition_check(name):
    data = np.zeros((3, 3), dtype=complex)
    data[0, 0] = 1.0
    data[1:, 1:] = BAD_BLOCKS[name]
    y = BlockMatrix(data, (1, 2, 3), (1, 2, 3), 1)
    with pytest.raises(SingularInteriorBlock):
        kron_reduce(y, {2, 3})
    with pytest.raises(SingularInteriorBlock):
        hybrid_partition(y, {2, 3})
    # The same matrix as an augmented grid: one internal source node, then
    # the physical block Y_UU = the bad block over a zero node and a
    # resource node, so M couples to it.
    nodes = (te_node(1), 2, 3)
    rows, cols = np.indices(data.shape).reshape(2, -1)
    aug = AugmentedGrid(nodes=nodes, p=1, rows=rows, cols=cols, values=data.ravel(),
                        internal_nodes=nodes[:1], resource_nodes=(3,))
    for y_uu in (None, csc_array(BAD_BLOCKS[name])):
        with pytest.raises(SingularInteriorBlock):
            reduce_augmented(aug, y_uu)


# -- Group 5 ---------------------------------------------------------------


def test_block_addressing():
    p = 2
    data = np.arange(36, dtype=float).reshape(6, 6) + 0j
    bm = BlockMatrix(data, ("a", "b", "c"), ("a", "b", "c"), p)
    assert bm.square
    assert bm.row_slice("b") == slice(2, 4)
    assert np.array_equal(bm.block("b", "c"), data[2:4, 4:6])
    assert np.array_equal(bm.row_indices(["c", "a"]), [4, 5, 0, 1])
    sub = bm.submatrix(("c", "a"), ("b",))
    assert sub.row_nodes == ("c", "a")
    assert np.array_equal(sub.data, data[np.ix_([4, 5, 0, 1], [2, 3])])


def test_block_matrix_data_ownership():
    data = np.arange(4, dtype=complex).reshape(2, 2)
    bm = BlockMatrix(data, (1, 2), (1, 2), 1)
    assert not bm.data.flags.writeable
    assert data.flags.writeable and not np.shares_memory(bm.data, data)
    data[0, 0] = 9.0
    assert bm.data[0, 0] == 0.0

    built = np.arange(4, dtype=complex).reshape(2, 2)
    adopted = BlockMatrix._adopt(built, (1, 2), (1, 2), 1)
    assert adopted.data is built and not built.flags.writeable
    assert adopted == bm

    grid, _, _ = random_system(np.random.default_rng(3), n_nodes=5, p=2)
    y = assemble_admittance(grid)
    for m in (y, y.submatrix(grid.node_ids[:2], grid.node_ids[1:]), kron_reduce(y, {grid.node_ids[-1]})):
        assert not m.data.flags.writeable
