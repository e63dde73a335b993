"""
Compound admittance algebra - assembly, Kron reduction, hybrid parameters.

Proves:
 Group 1 - Stamps
   1.  Plain branch stamp is [[y, -y], [-y, y]] with y = z^-1
   2.  Transformer stamp carries the gain as [[g^2 y, -g y], [-g y, y]]
   3.  Singular, near-singular or non-finite series impedance raises
       SingularBranch

 Group 2 - Assembly
   4.  Two-node Y superposes stamp, pi shunts, and node shunts exactly
   5.  Assembled Y satisfies KCL against per-branch physics on random grids
   6.  Assembled Y is symmetric (gains included)
   7.  Asymmetric branch impedance raises ValidationError at assembly
   8.  validate_parameters flags asymmetric / indefinite / singular elements;
       at the edges of the passivity rule, and on a singular matrix, a
       branch impedance, a pi shunt, a node shunt and a slack's z_te are
       judged alike (invertibility on impedances only): a flagged z_te
       fails SlackModel with a ValueError naming the fault, and any other
       flagged carrier makes PolyphaseSystem raise ValidationError holding
       exactly validate_parameters(grid), while an unflagged one builds
   8a. An inf or nan impedance, pi shunt, node shunt or z_te is reported
       as non-finite, with no warning, and refused like any other fault
   9.  A healthy random grid validates clean

 Group 3 - Kron reduction
  10.  Empty elimination set returns the matrix unchanged
  11.  Series ladder reduces to the textbook y1 y2 / (y1 + y2)
  12.  One-shot elimination equals sequential elimination
  13.  Reduction preserves terminal behavior when eliminated injections are 0
  14.  Eliminating everything / unknown nodes raises ValueError

 Group 4 - Hybrid parameters
  15.  2x2 integer example: blocks (0.5, 0.5, -0.5, 1.5)
  16.  Hybrid relations V_M = h_mm I_M + h_mmc V_Mc and
       I_Mc = h_mcm I_M + h_mcmc V_Mc hold on random grids
  17.  Empty M raises ValueError
  17a. Kron and hybrid reject an exactly singular, a near-singular and a
       non-finite interior block with SingularInteriorBlock, and so does
       reduce_augmented, on Y_UU's band LU, when the bad block is coupled
       to the resource nodes

 Group 5 - Block addressing and structure
  18.  block / row_slice / row_indices agree with raw offsets
  19.  data is read-only; a caller's array is copied and left writable,
       an array the library builds is taken over without a copy
  19a. Node, Branch, Shunt, GridModel, BlockMatrix, SlackModel,
       OperatingPoint and AugmentedGrid reject structurally broken input
       with a ValueError naming the fault (for Node and Branch an infinite
       nominal voltage or gain too; for AugmentedGrid a slack or
       resource node off its nodes, or a Y_UU without p rows per node), and
       the stepwise reductions a non-square matrix
  19b. Every dataclass that holds arrays compares by content: a deep copy
       (distinct arrays) is equal, and one changed array element makes it
       unequal; a CpfTrace compares through its samples

 Group 6 - Linear solves
  20.  linear_solver solves a x = b and, with transpose=True, a' x = b,
       a plain array or a BandMatrix, real and complex, for one or several
       real or complex right-hand sides; a singular or nan matrix raises
       the caller's error type in both directions, never a raw
       LinAlgError, and a solver that found its matrix singular raises on
       every call.  A plain array is solved by np.linalg.solve bit for
       bit, and a is left untouched: C- or F-ordered, read-only or
       byte-swapped
  20a. On a band, the band LU and the np.linalg.solve fallback taken
       without numpy's LAPACK binding agree to 1e-12: a' x = b and a x = b,
       real and complex, on matrices that make gbtrf pivot
  20b. linear_solver refuses a right-hand side that is not (n,) or (n, k),
       and a complex one for a real matrix, with the same ValueError on
       the band LU and on the fallback, before any LAPACK call, and stays
       usable; it refuses a matrix that is not square, on every path, with
       a ValueError naming the shape, never as singular; a BandMatrix
       refuses values that do not fit its blocks and a Band blocks that
       are out of row order or leave a row empty
  20c. reverse_cuthill_mckee orders every vertex, isolated ones too, and
       takes a randomly labelled path back to bandwidth 1 and the bundled
       feeder's randomly relabelled node graph to at most 4; the grid's
       order, from one edge per node block of Y_UU, is the order of one
       edge per nonzero entry (bundled, 252-state and 302-node feeders)
  20d. On a system's band order, linear_solver solves a x = b and
       a' x = b as np.linalg.solve does (to 1e-13 times the condition
       number) and backward stably, for one or three right-hand sides:
       bundled and 252-state feeder Jacobians along their traces, and
       random matrices on the pattern of those and of small random grids;
       a BandMatrix times a vector or a block of 8 columns matches its
       dense copy (Y_UU and J_x of the bundled and 252-state feeders)
  20e. On the band path an exactly singular and a nan Jacobian raise the
       caller's error with the general path's messages, and a failed band
       factorization stays failed
  20f. With numpy's LAPACK binding absent, a band is ignored and every
       solve is np.linalg.solve of the dense copy bit for bit
  20g. numpy's LAPACK is bound for the band LU alone: gbtrf and gbtrs,
       real and complex
  20h. Building the bundled, the 252-state and a 302-node feeder's
       systems factors once: one complex band LU, of Y_UU on the grid's
       band order

 Group 7 - Stacked algebra
  21.  _inverse on a stack equals one call per matrix bit for bit, with an
       exactly singular, a below-floor and a non-finite member
  22.  passivity_faults on a stack finds the faults of one call per matrix
  22a. passivity_faults is scale-free up to the float limit: the edge
       matrices scaled by 2^-900 to 2^1022 keep their verdicts, the
       printed eigenvalue scales with them, and numpy never overflows
  23.  admittance_entries' node blocks equal the per-branch sum of
       branch_stamp bit for bit: bundled feeder, 302-node synthetic feeder,
       random grids with gains, pi shunts, node shunts and parallel
       branches; each slack's y_te, taken as a shunt at its terminal,
       gives the grid's part of the stamp of a gain-1 branch from its
       internal node through its z_te
  24.  The passivity result is shared per grid, in either call order:
       assembly raises ValidationError holding the same violation list,
       an asymmetric and a singular impedance alike
"""

import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from polyvsi_cases import CP, PASSIVITY_EDGES, band_matrix, random_system, stamped_blocks
from polyvsi import grid
from polyvsi.benchmark import build_benchmark
from polyvsi.blocks import BlockMatrix
from polyvsi.builders import positive_sequence_source
from polyvsi.errors import SingularBranch, SingularInteriorBlock, ValidationError
from polyvsi.gridfile import parse_grid_text
from polyvsi.grid import (
    RCOND_FLOOR,
    BandMatrix,
    Branch,
    GridModel,
    Node,
    Shunt,
    _inverse,
    admittance_entries,
    assemble_admittance,
    branch_stamp,
    hybrid_partition,
    kron_reduce,
    linear_solver,
    passivity_faults,
    validate_parameters,
)
from polyvsi.nodes import PhaseResource, ResourceModel, SlackModel
from polyvsi.powerflow import OperatingPoint, PolyphaseSystem, SvdBlock, mismatch, solve_power_flow
from polyvsi.vsi import AugmentedGrid, reduce_augmented, te_node, vsi_coefficients


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
    with pytest.raises(ValidationError) as exc:
        assemble_admittance(grid)
    assert [(v.kind, v.element) for v in exc.value.violations] == [("asymmetric", "branch 1-2 impedance")]


def _carriers(m):
    """Two-node systems (grid, slacks, resources) carrying the 2 x 2 matrix
    m, keyed by element kind.  Each is built on call, because a SlackModel
    judges its z_te when it is constructed."""
    load = ResourceModel(2, 1000.0, (PhaseResource(-1e3, 0.0, CP, CP),) * 2)

    def system(grid, z_te=(0.1 + 0.2j) * np.eye(2)):
        return grid, [SlackModel(1, positive_sequence_source(1000.0, 2), z_te)], [load]

    return {
        "impedance": lambda: system(_two_node_grid(p=2, z=m)),
        "from-shunt": lambda: system(_two_node_grid(p=2, y_shunt_from=m)),
        "to-shunt": lambda: system(_two_node_grid(p=2, y_shunt_to=m)),
        "node-shunt": lambda: system(replace(_two_node_grid(p=2), shunts=(Shunt(2, m),))),
        "z_te": lambda: system(_two_node_grid(p=2), z_te=m),
    }


def _refused(build):
    """Fault kinds a carrier's system is refused for, [] when it builds.

    A z_te fault is read from SlackModel's ValueError; any other from the
    ValidationError PolyphaseSystem raises, which must hold exactly
    validate_parameters(grid).
    """
    try:
        grid, slacks, resources = build()
    except ValueError as exc:
        return [re.search(r": ([a-z-]+) \(", str(exc)).group(1)]
    violations = validate_parameters(grid)
    try:
        PolyphaseSystem(grid, slacks, resources)
    except ValidationError as exc:
        assert exc.violations == violations
        return [v.kind for v in violations]
    assert violations == []
    return []


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
    for m, kind in PASSIVITY_EDGES + ((BAD_BLOCKS["singular"], "singular"),):
        for where, build in _carriers(m).items():
            # invertibility is judged on impedances only
            judged = kind != "singular" or where in ("impedance", "z_te")
            assert _refused(build) == ([kind] if kind and judged else []), (where, kind)


def test_validate_parameters_non_finite():
    for bad in (np.inf, np.nan):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for where, build in _carriers(m).items():
            assert _refused(build) == ["non-finite"], where
            if where != "z_te":
                (v,) = validate_parameters(build()[0])
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
    # The bad block as the physical block Y_UU of an augmented grid over a
    # slack terminal and a resource node, so M couples to it.
    slack = SlackModel(node=2, v_te=np.ones(1, dtype=complex), z_te=np.ones((1, 1), dtype=complex))
    aug = AugmentedGrid(nodes=(2, 3), y_uu=band_matrix(BAD_BLOCKS[name]), p=1, slacks=(slack,),
                        resource_nodes=(3,))
    with pytest.raises(SingularInteriorBlock):
        reduce_augmented(aug)


# -- Group 5 ---------------------------------------------------------------


def test_block_addressing():
    p = 2
    data = np.arange(36, dtype=float).reshape(6, 6) + 0j
    bm = BlockMatrix(data, ("a", "b", "c"), ("a", "b", "c"), p)
    assert bm.square
    assert bm.row_slice("b") == slice(2, 4)
    assert np.array_equal(bm.block("b", "c"), data[2:4, 4:6])
    assert np.array_equal(bm.row_indices(["c", "a"]), [4, 5, 0, 1])
    rows, cols = bm.row_indices(["c", "a"]), bm.row_indices(["b"])
    sub = BlockMatrix(bm.data[np.ix_(rows, cols)], ("c", "a"), ("b",), p)
    assert np.array_equal(sub.block("a", "b"), data[0:2, 2:4])


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
    for m in (y, kron_reduce(y, {grid.node_ids[-1]})):
        assert not m.data.flags.writeable


_Z1 = np.eye(1, dtype=complex)
_TWO = (Node(1, "slack"), Node(2, "zero"))
STRUCTURAL_ERRORS = {
    "node-role": (lambda: Node(1, "load"), "unknown node role 'load'"),
    "node-vnom": (lambda: Node(1, "zero", vnom=0.0), "nominal voltage must be positive"),
    "node-vnom-inf": (lambda: Node(1, "zero", vnom=float("inf")), "nominal voltage must be positive"),
    "branch-z-shape": (lambda: Branch(1, 2, np.ones((1, 2))),
                       "branch impedance must be a square matrix"),
    "branch-loop": (lambda: Branch(1, 1, _Z1), "branch endpoints must differ"),
    "branch-gain": (lambda: Branch(1, 2, _Z1, gain=float("nan")), "branch gain must be positive"),
    "branch-gain-inf": (lambda: Branch(1, 2, _Z1, gain=float("inf")), "branch gain must be positive"),
    "branch-shunt-shape": (lambda: Branch(1, 2, _Z1, y_shunt_to=np.eye(2)),
                           "y_shunt_to shape must match z"),
    "shunt-shape": (lambda: Shunt(1, np.ones(2)), "shunt admittance must be a square matrix"),
    "grid-duplicate": (lambda: GridModel((Node(1, "slack"), Node(1, "zero")), (), p=1),
                       "duplicate node ids"),
    "grid-empty": (lambda: GridModel((), (), p=1), "grid needs at least one node"),
    "grid-branch-node": (lambda: GridModel((Node(1, "slack"),), (Branch(1, 2, _Z1),), p=1),
                         "branch 1-2 references unknown node"),
    "grid-branch-p": (lambda: GridModel(_TWO, (Branch(1, 2, _Z1),), p=2),
                      "branch phase count differs from grid"),
    "grid-shunt-node": (lambda: GridModel((Node(1, "slack"),), (), (Shunt(3, _Z1),), p=1),
                        "shunt at unknown node 3"),
    "grid-shunt-p": (lambda: GridModel((Node(1, "slack"),), (), (Shunt(1, _Z1),), p=2),
                     "shunt phase count differs from grid"),
    "grid-islands": (lambda: GridModel(_TWO, (), p=1),
                     "branch graph is not weakly connected"),
    "block-shape": (lambda: BlockMatrix(np.zeros((2, 2)), (1,), (1,), 1),
                    "data shape (2, 2) does not match (1, 1)"),
    "block-p": (lambda: BlockMatrix(np.zeros((0, 0)), (), (), 0), "phase count must be >= 1"),
    "block-rows": (lambda: BlockMatrix(np.zeros((2, 2)), (1, 1), (1, 2), 1), "duplicate row node ids"),
    "block-cols": (lambda: BlockMatrix(np.zeros((2, 2)), (1, 2), (2, 2), 1), "duplicate column node ids"),
    "kron-not-square": (lambda: kron_reduce(BlockMatrix(np.zeros((1, 2)), (1,), (1, 2), 1), ()),
                        "the stepwise reductions need a square block matrix"),
    "slack-v-shape": (lambda: SlackModel(1, np.ones((1, 1)), _Z1), "v_te must be a vector"),
    "slack-z-shape": (lambda: SlackModel(1, np.ones(2), np.eye(3)), "z_te must be P x P matching v_te"),
    "slack-v-finite": (lambda: SlackModel(1, np.array([np.inf]), _Z1), "v_te must be finite"),
    "point-shape": (lambda: OperatingPoint((1, 2), 1, np.ones((2, 1)), np.zeros((1, 2))),
                    "e/theta must have shape (2, 1)"),
    "point-duplicate": (lambda: OperatingPoint((1, 1), 1, [[1.0], [2.0]], np.zeros((2, 1))), "duplicate node ids"),
    # A 2 x 2 Y_UU with p = 1: a slack off the grid's nodes, a resource node
    # off them, and one node more than Y_UU has rows.
    "augmented-slack": (lambda: _augmented((2, 3), slack_at=1), "slack nodes [1] are not among the grid's nodes"),
    "augmented-resource": (lambda: _augmented((2, 3), resource_at=4),
                           "resource nodes [4] are not among the grid's nodes"),
    "augmented-y-uu": (lambda: _augmented((2, 3, 4)), "y_uu of shape (2, 2) for 3 nodes at p = 1"),
}


def _augmented(nodes, slack_at=2, resource_at=3):
    slack = SlackModel(node=slack_at, v_te=np.ones(1, dtype=complex), z_te=np.ones((1, 1), dtype=complex))
    return AugmentedGrid(nodes=nodes, y_uu=band_matrix(np.eye(2, dtype=complex)), p=1, slacks=(slack,),
                         resource_nodes=(resource_at,))


@pytest.mark.parametrize("case", sorted(STRUCTURAL_ERRORS))
def test_structural_errors(case):
    build, message = STRUCTURAL_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.fixture(scope="module")
def bundled_records(bench_system, bench_trace):
    """{class name: (instance, name of an array field, or of CpfTrace's samples)}."""
    system = bench_system
    op, result = solve_power_flow(system)
    return {
        "AugmentedGrid": (system.aug, "y_uu"),
        "VsiCoefficients": (vsi_coefficients(system.hybrid, system.slacks, system.resources, op), "b"),
        "OperatingPoint": (op, "e"),
        "Mismatch": (mismatch(system, op), "dp"),
        "NewtonResult": (result, "x"),
        "ZipTable": (system._zip, "p0"),
        "CpfSample": (bench_trace.samples[-1], "x"),
        "SvdBlock": (SvdBlock(np.eye(3)), "vectors"),
        "CpfTrace": (bench_trace, "samples"),
        "BlockMatrix": (system.hybrid.h_mm, "data"),
        "Band": (system.band, "order"),
        "BandMatrix": (system.aug.y_uu, "values"),
    }


def _changed(record, name):
    """record with the last element of its array field name changed: of the
    last sample's x for a list of samples, of the values for a BandMatrix."""
    value = getattr(record, name)
    if isinstance(value, list):
        return replace(record, **{name: value[:-1] + [_changed(value[-1], "x")]})
    if isinstance(value, BandMatrix):
        return replace(record, **{name: _changed(value, "values")})
    value = np.array(value)
    value.flat[-1] += 1.0
    return replace(record, **{name: value})


@pytest.mark.parametrize("cls", ["AugmentedGrid", "VsiCoefficients", "OperatingPoint", "Mismatch",
                                 "NewtonResult", "ZipTable", "CpfSample", "SvdBlock", "CpfTrace",
                                 "BlockMatrix", "Band", "BandMatrix"])
def test_array_dataclasses_compare_by_content(bundled_records, cls):
    record, name = bundled_records[cls]
    assert type(record).__name__ == cls
    twin, changed = copy.deepcopy(record), _changed(record, name)
    assert getattr(twin, name) is not getattr(record, name)
    assert record == twin and twin == record
    assert record != changed and changed != record


# -- Group 6 ---------------------------------------------------------------


def test_linear_solver_transpose():
    rng = np.random.default_rng(5)
    real = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    cplx = real + 1j * rng.standard_normal((6, 6))  # like the Y_UU of reduce_augmented
    vector, block = rng.standard_normal(6), rng.standard_normal((6, 3))
    cases = [(real, b) for b in (vector, block)]
    cases += [(cplx, b) for b in (vector, block, vector + 1j * vector[::-1], block - 2j * block)]
    for a, b in cases:
        read_only = np.array(a, order="F")
        read_only.flags.writeable = False
        swapped = np.asfortranarray(a.astype(a.dtype.newbyteorder()))
        for m in (np.array(a), np.asfortranarray(a), read_only, swapped, band_matrix(a), band_matrix(swapped)):
            solve = linear_solver(m, "test matrix")
            x = solve(b)
            assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)
            assert np.allclose(solve(b, transpose=True), np.linalg.solve(a.T, b), rtol=1e-12, atol=0.0)
            if not isinstance(m, BandMatrix):
                assert np.array_equal(x, np.linalg.solve(a, b)) and np.array_equal(m, a)
    singular, nan = np.ones((3, 3)), np.full((3, 3), np.nan)
    # A nan matrix may fail in the factorization or only in its solution.
    for bad, message in ((singular, "is singular"), (nan, "(is singular|gives a solution)")):
        for dtype in (float, complex):
            for transpose in (False, True):
                dense = bad.astype(dtype)
                for m in (dense, np.asfortranarray(dense), band_matrix(dense)):
                    with pytest.raises(SingularBranch, match=f"^test matrix {message}"):
                        linear_solver(m, "test matrix", SingularBranch)(np.ones(3), transpose=transpose)
    for first in (False, True):  # a failed factorization stays failed
        solve = linear_solver(singular, "test matrix", SingularBranch)
        for transpose in (first, not first, first):
            with pytest.raises(SingularBranch, match="^test matrix is singular"):
                solve(np.ones(3), transpose=transpose)


def test_linear_solver_fallback_agrees(monkeypatch):
    # On a band, LAPACK's band LU and the np.linalg.solve fallback taken
    # without numpy's LAPACK binding agree to 1e-12, real and complex,
    # plain and transposed.  The matrices are not diagonally dominant, so
    # gbtrf pivots.
    if not grid._lapack():
        pytest.skip("numpy's LAPACK is not bound here; linear_solver falls back to np.linalg.solve")
    rng = np.random.default_rng(7)
    n = 40
    label = rng.permutation(n)
    rows, cols = (label[k] for k in np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2))
    by_row = np.lexsort((cols, rows))
    rows, cols = rows[by_row], cols[by_row]
    band = grid.Band.of(grid.reverse_cuthill_mckee(rows, cols, n), np.arange(n)[:, None], rows, cols)
    assert band.kl == band.ku == 2

    def on_pattern():
        return rng.standard_normal(band.storage.shape)

    real = on_pattern() + (rows == cols)[:, None, None]
    cplx = real + 1j * on_pattern()
    vector, block = rng.standard_normal(n), rng.standard_normal((n, 8))
    for values, b in ((real, vector), (real, block), (cplx, vector), (cplx, block + 1j * block[::-1])):
        a = BandMatrix(band, values)
        dense = np.asarray(a)
        fast = linear_solver(a, "test matrix")
        with monkeypatch.context() as patch:
            patch.setattr(grid, "_lapack", lambda: {})
            fallback = linear_solver(a, "test matrix")
        for transpose in (False, True, False):
            want = fallback(b, transpose)
            assert np.array_equal(want, np.linalg.solve(dense.T if transpose else dense, b))
            assert np.linalg.norm(fast(b, transpose) - want) <= 1e-12 * np.linalg.norm(want)


def test_linear_solver_refuses_bad_right_hand_sides(bench_system, monkeypatch):
    # Each right-hand side is checked once, ahead of both paths: the band LU
    # and the np.linalg.solve fallback (_lapack patched to {}) refuse a
    # wrong shape and a complex b for a real matrix with the same
    # ValueError, the band LU before any LAPACK call, and a refused call
    # leaves the solver usable.  The matrices: the identity as a real
    # tridiagonal BandMatrix and as a plain array, and the real J_x.
    rows, cols = [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2]
    tridiagonal = grid.Band.of([2, 0, 1], np.arange(3)[:, None], rows, cols)
    j_x = bench_system.jacobian_x(bench_system.flat_start(), 1.0)
    x = np.random.default_rng(2).standard_normal(150)
    cases = [(BandMatrix(tridiagonal, np.equal(rows, cols)[:, None, None] * 1.0), np.ones(3)),
             (np.eye(3), np.ones(3)), (j_x, j_x @ x)]
    table, calls = grid._lapack(), []

    def recorded(char):
        return {name: lambda *args, name=name, routine=routine: calls.append(name) or routine(*args)
                for name, routine in table[char].items()}

    for lapack in ({char: recorded(char) for char in table}, {}):
        monkeypatch.setattr(grid, "_lapack", lambda: lapack)
        for a, b in cases:
            n, banded = b.size, bool(lapack) and isinstance(a, BandMatrix)
            solve = linear_solver(a, "J_x")
            calls.clear()
            refusals = [(bad, f"right-hand side of shape {bad.shape} for a {n} x {n} matrix")
                        for bad in (b[:-1], np.ones((n + 1, 1)), b[:, None, None], np.float64(1.0))]
            refusals += [(bad, f"right-hand side of dtype complex128 for a real {n} x {n} matrix")
                         for bad in (b + 0j, 1j * b[:, None])]
            for bad, message in refusals:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    solve(bad)
            assert calls == []
            for transpose in (False, True):  # the refusals left the solver usable
                want = np.linalg.solve(np.asarray(a).T if transpose else np.asarray(a), b)
                assert np.allclose(solve(b, transpose), want, rtol=1e-12, atol=1e-12)
            assert calls == (["gbtrf", "gbtrs", "gbtrs"] if banded else [])


def test_linear_solver_rejects_non_square(bench_system, monkeypatch):
    # Checked before any factorization, so the shape is never reported as a
    # singular matrix, on every path.
    for lapack in (grid._lapack(), {}):
        monkeypatch.setattr(grid, "_lapack", lambda: lapack)
        for a in (np.ones((2, 3)), np.ones((2, 3), dtype=complex), np.ones(4), np.ones((2, 2, 2)), [[1.0, 2.0]]):
            with pytest.raises(ValueError, match=re.escape(f"m of shape {np.shape(a)} is not a square matrix")):
                linear_solver(a, "m")
    band = bench_system.band
    with pytest.raises(ValueError, match=re.escape(f"values of shape (3, 3) for blocks of {band.storage.shape}")):
        BandMatrix(band, np.eye(3))
    index, rows, cols = np.arange(3)[:, None], np.array([0, 1, 1, 2]), np.array([0, 0, 1, 2])
    for block_rows, block_cols in ((rows[::-1], cols[::-1]), (rows[rows != 1], cols[rows != 1])):
        with pytest.raises(ValueError, match="sorted by block row, each row holding one"):
            grid.Band.of([0, 1, 2], index, block_rows, block_cols)


def test_band_refuses_repeated_and_outside_blocks():
    # A repeated block would be summed by @ but kept once by the dense view
    # and the band LU; a column of -1 would be read as the last node.
    index = np.arange(2)[:, None]
    assert grid.Band.of([0, 1], index, [0, 1, 1], [0, 1, 0]).block_cols.tolist() == [0, 1, 0]
    for rows, cols, message in (([0, 0, 1], [0, 0, 1], "block (0, 0) is repeated"),
                                ([0, 1, 1, 1], [0, 0, 1, 0], "block (1, 0) is repeated"),
                                ([0, 1], [0, -1], "block (1, -1) has a column outside 0..1"),
                                ([0, 0, 1], [0, 7, 1], "block (0, 7) has a column outside 0..1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.Band.of([0, 1], index, rows, cols)


def _bandwidth(order, rows, cols):
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return int(np.abs(position[rows] - position[cols]).max(initial=0))


def test_reverse_cuthill_mckee_orders_any_labelling(bench_system):
    # A path labelled at random, with self loops and an isolated vertex 9,
    # comes out as a path again.
    path = np.array([4, 7, 0, 2, 8, 1, 5, 3, 6])
    rows, cols = np.append(path[:-1], [3, 9]), np.append(path[1:], [3, 9])
    order = grid.reverse_cuthill_mckee(rows, cols, 10)
    assert sorted(order.tolist()) == list(range(10)) and _bandwidth(order, rows, cols) == 1
    # The bundled feeder's node graph under shuffled labels: the shuffled
    # numbering leaves about 20 of 25 nodes between neighbours, the order 4
    # at most (2 on the grid file's own labels).
    band = bench_system.aug.y_uu.band
    rows, cols, n = band.block_rows, band.block_cols, band.order.size
    for seed in range(5):
        label = np.random.default_rng(seed).permutation(n)
        edges = label[rows], label[cols]
        order = grid.reverse_cuthill_mckee(*edges, n)
        assert sorted(order.tolist()) == list(range(n))
        assert _bandwidth(order, *edges) <= 4 and _bandwidth(np.arange(n), *edges) >= 15


def test_grid_order_takes_one_edge_per_block(bench_system, feeder_trace, synthfeeder):
    # build_augmented orders the node graph from one edge per p x p block of
    # Y_UU; one edge per nonzero entry gives the same graph, so the same order.
    big = PolyphaseSystem(*parse_grid_text(synthfeeder.feeder_text(0, 300)))
    for system in (bench_system, feeder_trace[0], big):
        p, dense = system.p, np.asarray(system.aug.y_uu)
        rows, cols = np.nonzero(dense)
        order = grid.reverse_cuthill_mckee(rows // p, cols // p, dense.shape[0] // p)
        assert np.array_equal(system.aug.y_uu.band.order, order)


def _pattern_matrix(band, rng):
    """A random BandMatrix on band's pattern, diagonally dominant."""
    dense = np.asarray(BandMatrix(band, rng.standard_normal(band.storage.shape)))
    dense[np.diag_indices_from(dense)] += 2.0 * np.abs(dense).sum(axis=1) + 1.0
    return BandMatrix(band, dense[band.entries])


def test_band_solver_matches_solve(bench_system, bench_trace, feeder_trace):
    rng = np.random.default_rng(11)
    system, trace = feeder_trace
    cases = [bench_system.jacobian_x(s.x, s.xi) for s in bench_trace.samples[::16]]
    cases += [system.jacobian_x(s.x, s.xi) for s in trace.samples[::24]]
    cases += [_pattern_matrix(s.band, rng) for s in (bench_system, system) for _ in range(2)]
    for g in (random_system(np.random.default_rng(seed)) for seed in range(4)):
        cases.append(_pattern_matrix(PolyphaseSystem(*g).band, rng))
    for a in cases:
        dense = np.asarray(a)
        n, cond = a.shape[0], np.linalg.cond(dense)  # the Jacobians next to the fold reach 1e7
        solve = linear_solver(a, "J_x")
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            for transpose in (False, True, False):
                m = dense.T if transpose else dense
                x = solve(b, transpose=transpose)
                assert x.shape == b.shape
                assert np.abs(x - np.linalg.solve(m, b)).max() <= 1e-13 * cond * np.abs(x).max()
                assert np.abs(m @ x - b).max() <= 1e-13 * np.abs(m).max() * np.abs(x).max()


def test_band_matrix_product_matches_dense(bench_system, feeder_trace):
    # Y_UU @ v entry by entry in row order, J_x @ q block by block.
    rng = np.random.default_rng(13)
    for system in (bench_system, feeder_trace[0]):
        for a in (system.aug.y_uu, system.jacobian_x(system.flat_start(), 1.0)):
            dense = np.asarray(a)
            for x in (rng.standard_normal(a.shape[0]), rng.standard_normal((a.shape[0], 8))):
                want = dense @ x
                assert (a @ x).shape == want.shape
                assert np.abs(a @ x - want).max() <= 1e-14 * np.abs(dense).max() * np.abs(x).max() * a.shape[0]
            with pytest.raises(ValueError, match="operand of shape"):
                a @ np.ones(3)


def test_band_solver_failures(bench_system):
    a = bench_system.jacobian_x(bench_system.flat_start(), 1.0)
    band = a.band
    singular, nan = a.values.copy(), a.values.copy()
    # The whole row 7: gbtrf finds U exactly singular.
    singular[band.entries[0] == 7] = 0.0
    nan.reshape(-1)[9] = np.nan
    # A nan matrix may fail in the factorization or only in its solution.
    for bad, message in ((singular, "is singular"), (nan, "(is singular|gives a solution)")):
        for transpose in (False, True):
            with pytest.raises(SingularBranch, match=f"^J_x {message}"):
                linear_solver(BandMatrix(band, bad), "J_x", SingularBranch)(np.ones(150), transpose=transpose)
    for first in (False, True):  # a failed factorization stays failed
        solve = linear_solver(BandMatrix(band, singular), "J_x", SingularBranch)
        for transpose in (first, not first, first):
            with pytest.raises(SingularBranch, match="^J_x is singular"):
                solve(np.ones(150), transpose=transpose)


def test_band_solver_without_lapack_takes_the_general_path(bench_system, monkeypatch):
    # Without numpy's LAPACK binding the band is not used: every call is
    # np.linalg.solve on the dense matrix.
    a = bench_system.jacobian_x(bench_system.flat_start(), 1.0)
    b = np.random.default_rng(3).standard_normal((150, 2))
    monkeypatch.setattr(grid, "_lapack", lambda: {})
    solve = linear_solver(a, "J_x")
    assert np.array_equal(solve(b), np.linalg.solve(np.asarray(a), b))
    assert np.array_equal(solve(b, transpose=True), np.linalg.solve(np.asarray(a).T, b))


def test_lapack_binds_only_the_band_lu():
    table = grid._lapack()
    if not table:
        pytest.skip("numpy's LAPACK is not bound here; linear_solver falls back to np.linalg.solve")
    assert {char: sorted(routines) for char, routines in table.items()} == {
        "d": ["gbtrf", "gbtrs"], "D": ["gbtrf", "gbtrs"]}


def test_system_build_factors_y_uu_once_on_its_band(synthfeeder, monkeypatch):
    table = grid._lapack()
    if not table:
        pytest.skip("numpy's LAPACK is not bound here; linear_solver falls back to np.linalg.solve")
    factors = []

    def counted(char):
        def gbtrf(*args):
            factors.append(char)
            return table[char]["gbtrf"](*args)
        return {**table[char], "gbtrf": gbtrf}

    monkeypatch.setattr(grid, "_lapack", lambda: {char: counted(char) for char in table})
    for models in (build_benchmark(), parse_grid_text(synthfeeder.feeder_text(0, 40)),
                   parse_grid_text(synthfeeder.feeder_text(0, 300))):
        factors.clear()
        PolyphaseSystem(*models)
        assert factors == ["D"]


# -- Group 7 ---------------------------------------------------------------


def _same(a, b):
    """Bit-for-bit equality of arrays (nan equal to nan) or of scalars."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stacked_inverse_matches_per_matrix():
    rng = np.random.default_rng(3)
    good = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
            for _ in range(4)]
    below_floor = np.diag([1.0, 1e-15]).astype(complex)
    assert not _inverse(below_floor)[1] >= RCOND_FLOOR
    # Without the exactly singular member LAPACK inverts the stack in one call;
    # with it the stack falls back to one call per member.
    for bad in ([below_floor, BAD_BLOCKS["inf"], BAD_BLOCKS["near-singular"]],
                [below_floor, BAD_BLOCKS["singular"], BAD_BLOCKS["inf"]]):
        stack = np.array(good[:2] + bad + good[2:])
        inv, rcond = _inverse(stack)
        assert inv.shape == stack.shape and rcond.shape == (len(stack),)
        for k, m in enumerate(stack):
            m_inv, rc = _inverse(m)
            assert _same(rcond[k], rc), k
            if m_inv is None:
                assert rc == 0.0 and np.isnan(inv[k]).all()
            else:
                assert _same(inv[k], m_inv), k
    assert _inverse(BAD_BLOCKS["singular"]) == (None, 0.0)


def test_stacked_passivity_faults_match_per_matrix():
    rng = np.random.default_rng(4)
    mats = [m for m, _ in PASSIVITY_EDGES] + list(BAD_BLOCKS.values())
    mats += [np.diag([1.0, 1e-15]).astype(complex), np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)]
    mats += [0.5 * (a + a.T) + 3 * np.eye(2) for a in rng.standard_normal((4, 2, 2)) + 0j]
    order = rng.permutation(len(mats))
    mats = [mats[k] for k in order]
    rcond = np.array([_inverse(m)[1] for m in mats])
    for invertible in (False, rng.random(len(mats)) < 0.7, np.ones(len(mats), dtype=bool)):
        mask = np.broadcast_to(invertible, (len(mats),))
        judged = np.where(mask, rcond, np.inf)  # inf: not judged invertible
        each = [(k, kind, detail) for k, m in enumerate(mats)
                for _, kind, detail in passivity_faults([m], [judged[k]])]
        assert passivity_faults(mats, judged) == sorted(each, key=lambda f: f[0])
        assert any(kind == "singular" for _, kind, _ in each) == bool(mask.any())


def test_passivity_faults_are_scale_free():
    """Scaling every matrix by a power of two up to the float limit keeps
    each verdict and scales the printed eigenvalue, without a numpy
    overflow."""
    mats = [m for m, _ in PASSIVITY_EDGES] + [BAD_BLOCKS["singular"]]
    base = passivity_faults(mats, [np.inf] * len(mats))
    for k in (-900, -60, 60, 1022):
        faults = passivity_faults([np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k) for m in mats],
                                  [np.inf] * len(mats))
        assert [f[:2] for f in faults] == [f[:2] for f in base]
        for (_, kind, detail), (_, _, ref) in zip(faults, base):
            if kind == "indefinite-real-part":
                scaled = float(ref.split()[-1]) * 2.0**k
                assert detail == f"min eigenvalue {scaled:.3e}"


def _with_pi_and_parallel(rng, grid):
    """grid with pi shunts on some branches and a parallel copy of one."""
    p = grid.p
    branches = [replace(b, y_shunt_from=1j * rng.uniform(1e-6, 1e-5) * np.eye(p),
                        y_shunt_to=None if rng.random() < 0.5 else 2e-6j * np.eye(p))
                if rng.random() < 0.6 else b for b in grid.branches]
    first = branches[0]
    branches.append(Branch(first.to_node, first.from_node, 2.0 * first.z, gain=1.1))
    return replace(grid, branches=tuple(branches))


def test_admittance_entries_match_branch_stamps(synthfeeder):
    from polyvsi.gridfile import parse_grid_text

    cases = [build_benchmark()[:2], parse_grid_text(synthfeeder.feeder_text(0, 300))[:2]]
    rng = np.random.default_rng(23)
    for _ in range(30):
        grid, slacks, _ = random_system(rng)
        cases.append((_with_pi_and_parallel(rng, grid), slacks))
    lone = GridModel(nodes=(Node(1, "slack", vnom=1.0),), branches=(), shunts=(Shunt(1, 1e-3j * np.eye(2)),), p=2)
    cases.append((lone, [SlackModel(node=1, v_te=np.ones(2, dtype=complex), z_te=(0.1 + 0.2j) * np.eye(2))]))
    assert any(b.gain != 1.0 for grid, _ in cases for b in grid.branches)
    assert any(grid.shunts for grid, _ in cases)
    for grid, slacks in cases:
        nodes, *ref = stamped_blocks(grid)
        assert nodes == grid.node_ids
        assert all(_same(a, b) for a, b in zip(admittance_entries(grid), ref, strict=True))
        # A slack's y_te as a shunt at its terminal, stamped last, is the
        # grid's part of a gain-1 branch from its internal node through z_te.
        k = len(slacks)
        nodes, rows, cols, values = stamped_blocks(grid, [Branch(te_node(s.node), s.node, s.z_te) for s in slacks])
        physical = (rows >= k) & (cols >= k)
        got = admittance_entries(grid, [Shunt(s.node, s.y_te) for s in slacks])
        ref = rows[physical] - k, cols[physical] - k, values[physical]
        assert all(_same(a, b) for a, b in zip(got, ref, strict=True))


def test_shared_passivity_keeps_precedence():
    z_asym = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    z_sing = np.ones((2, 2), dtype=complex)

    def grid(*impedances):
        return GridModel(
            nodes=tuple(Node(i, "zero" if i > 1 else "slack", vnom=1.0) for i in range(1, len(impedances) + 2)),
            branches=tuple(Branch(i, i + 1, z) for i, z in enumerate(impedances, start=1)),
            p=2,
        )

    expected = [("asymmetric", "branch 1-2 impedance"), ("singular", "branch 2-3 impedance")]
    for validate_first in (True, False):
        both = grid(z_asym, z_sing)
        if validate_first:
            assert [(v.kind, v.element) for v in validate_parameters(both)] == expected
        with pytest.raises(ValidationError) as exc:
            assemble_admittance(both)
        assert [(v.kind, v.element) for v in exc.value.violations] == expected
        assert [(v.kind, v.element) for v in validate_parameters(both)] == expected
        singular = grid(z_sing)
        if validate_first:
            assert [v.kind for v in validate_parameters(singular)] == ["singular"]
        with pytest.raises(ValidationError) as exc:
            assemble_admittance(singular)
        assert [(v.kind, v.element) for v in exc.value.violations] == [("singular", "branch 1-2 impedance")]
