"""Tests for the decomposition-specification language."""

import pytest

from repro.decomp import (
    Block,
    BlockScatter,
    Collapsed,
    GridDecomposition,
    Replicated,
    Scatter,
    SingleOwner,
)
from repro.decomp.spec import SpecError, parse_distribution, parse_spec


class TestSingleStatements:
    def test_block(self):
        name, d = parse_distribution("distribute A[24](block) on 4")
        assert name == "A"
        assert isinstance(d, Block)
        assert (d.n, d.pmax) == (24, 4)

    def test_block_with_size(self):
        _, d = parse_distribution("distribute A[24](block(8)) on 4")
        assert d.b == 8

    def test_scatter(self):
        _, d = parse_distribution("distribute B[48](scatter) on 6")
        assert isinstance(d, Scatter)
        assert d.pmax == 6

    def test_blockscatter(self):
        _, d = parse_distribution("distribute C[24](blockscatter(2)) on 4")
        assert isinstance(d, BlockScatter)
        assert d.b == 2

    def test_blockscatter_requires_size(self):
        with pytest.raises(SpecError, match="block size"):
            parse_distribution("distribute C[24](blockscatter) on 4")

    def test_single_owner(self):
        _, d = parse_distribution("distribute E[24](single(1)) on 4")
        assert isinstance(d, SingleOwner)
        assert d.owner == 1

    def test_replicated(self):
        _, d = parse_distribution("distribute D[24](replicated) on 4")
        assert isinstance(d, Replicated)

    def test_overlapped(self):
        # retired kind: a one-line error naming what is valid, no alias
        with pytest.raises(SpecError, match=r"unknown distribution kind "
                           r"'overlapped'; valid kinds: block\[\(b\)\], "
                           r"scatter, blockscatter\(b\), single\(owner\), "
                           r"replicated, collapsed$"):
            parse_distribution("distribute H[24](overlapped(1)) on 4")

    def test_grid_2d(self):
        _, d = parse_distribution(
            "distribute M[8, 6](block, scatter) on 2 x 3"
        )
        assert isinstance(d, GridDecomposition)
        assert d.grid_shape == (2, 3)
        assert isinstance(d.dims[0], Block)
        assert isinstance(d.dims[1], Scatter)

    def test_collapsed_axis_consumes_no_grid_factor(self):
        _, d = parse_distribution(
            "distribute N[8, 6](block, collapsed) on 2"
        )
        assert isinstance(d.dims[1], Collapsed)
        assert d.pmax == 2

    def test_grid_kinds_each_with_arguments(self):
        _, d = parse_distribution(
            "distribute M[8, 6](blockscatter(2), blockscatter(3)) on 2 x 3"
        )
        assert [(type(a), a.b) for a in d.dims] \
            == [(BlockScatter, 2), (BlockScatter, 3)]
        _, d = parse_distribution(
            "distribute M[8, 6](block(4), block(2)) on 2 x 3"
        )
        assert [(type(a), a.b) for a in d.dims] == [(Block, 4), (Block, 2)]

    def test_kind_count_mismatch(self):
        with pytest.raises(SpecError, match="dimensions"):
            parse_distribution("distribute M[8, 6](block) on 2")

    def test_extra_grid_factor(self):
        with pytest.raises(SpecError, match="unused grid factor"):
            parse_distribution("distribute A[8](block) on 2 x 2")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown distribution kind"):
            parse_distribution("distribute A[8](banana) on 2")

    def test_garbage(self):
        with pytest.raises(SpecError, match="cannot parse"):
            parse_distribution("give A to everyone")


class TestSpecFiles:
    def test_multi_statement_file(self):
        spec = parse_spec("""
            # the decomposition is a separate, versionable artifact
            distribute A[24](block) on 4;
            distribute B[48](scatter) on 4;

            distribute M[8, 6](block, scatter) on 2 x 2;
        """)
        assert set(spec) == {"A", "B", "M"}
        assert isinstance(spec["A"], Block)
        assert isinstance(spec["M"], GridDecomposition)

    def test_inline_comment(self):
        spec = parse_spec("distribute A[10](scatter) on 2;  # cyclic")
        assert isinstance(spec["A"], Scatter)

    def test_duplicate_rejected(self):
        with pytest.raises(SpecError, match="distributed twice"):
            parse_spec("""
                distribute A[10](block) on 2;
                distribute A[10](scatter) on 2;
            """)

    def test_empty_spec(self):
        assert parse_spec("  \n # nothing\n") == {}

    def test_multiple_statements_one_line(self):
        spec = parse_spec(
            "distribute A[10](block) on 2; distribute B[10](scatter) on 2;"
        )
        assert set(spec) == {"A", "B"}
