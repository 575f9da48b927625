"""Tests for design validation and legality checking."""


from repro.netlist import (
    DesignBuilder,
    Rect,
    Technology,
    check_legal,
    validate_design,
)


def build(cells, die=64.0, fixed=None):
    """cells: list of (x, y, w) placements; fixed: same for fixed cells."""
    tech = Technology()
    b = DesignBuilder("v", tech, Rect(0, 0, die, die))
    for i, (x, y, w) in enumerate(cells):
        b.add_cell(f"c{i}", w, tech.row_height, x=x, y=y)
    for i, (x, y, w, h) in enumerate(fixed or []):
        b.add_cell(f"f{i}", w, h, x=x, y=y, movable=False)
    return b.build()


class TestValidateDesign:
    def test_valid_design_ok(self, small_design):
        assert validate_design(small_design).ok

    def test_fixed_outside_die_is_error(self):
        d = build([(10, 12, 2)], fixed=[(63.5, 10, 4, 8)])
        report = validate_design(d)
        assert not report.ok
        assert any("outside" in e for e in report.errors)

    def test_singleton_nets_warn(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 64, 64))
        c = b.add_cell("c0", 2, 8)
        n = b.add_net("n0")
        b.add_pin(c, n)
        report = validate_design(b.build())
        assert report.ok
        assert any("fewer than two pins" in w for w in report.warnings)

    def test_over_utilization_is_error(self):
        cells = [(8 * i + 4, 4, 8) for i in range(70)]
        d = build(cells, die=16.0)
        report = validate_design(d)
        assert not report.ok

    def test_report_str(self, small_design):
        text = str(validate_design(small_design))
        assert "errors:" in text


class TestCheckLegal:
    def test_legal_row_placement_passes(self):
        # Two cells abutting in row 0 (bottoms at y=0, centers at 4).
        d = build([(1, 4, 2), (3, 4, 2)])
        assert check_legal(d).ok

    def test_overlap_detected(self):
        d = build([(1.0, 4, 2), (2.0, 4, 2)])
        report = check_legal(d)
        assert any("overlap" in e for e in report.errors)

    def test_row_misalignment_detected(self):
        d = build([(1, 5.5, 2)])
        report = check_legal(d)
        assert any("row-aligned" in e for e in report.errors)

    def test_site_misalignment_detected(self):
        d = build([(1.3, 4, 2)])
        report = check_legal(d)
        assert any("site-aligned" in e for e in report.errors)

    def test_outside_die_detected(self):
        d = build([(63.5, 4, 2)])
        report = check_legal(d)
        assert any("outside" in e for e in report.errors)

    def test_macro_overlap_detected(self):
        d = build([(10, 12, 2)], fixed=[(10, 12, 8, 8)])
        report = check_legal(d)
        assert any("fixed" in e for e in report.errors)

    def test_movable_macro_overlap_detected(self):
        # A movable macro over a fixed cell and over another macro: the
        # same one-pair-each findings repro.verify reports.
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 64, 64))
        b.add_cell("m0", 16, 16, x=16, y=16, macro=True)
        b.add_cell("f0", 4, 8, x=18, y=12, movable=False)
        b.add_cell("m1", 16, 16, x=40, y=40, macro=True)
        b.add_cell("m2", 16, 16, x=44, y=40, movable=False, macro=True)
        report = check_legal(b.build())
        assert report.errors == [
            "2 overlapping cell pairs (2 with fixed objects)"
        ]

    def test_site_align_off_skips_site_check(self):
        d = build([(1.3, 4, 2)])
        assert check_legal(d, site_align=False).ok

    def test_same_x_different_rows_ok(self):
        d = build([(1, 4, 2), (1, 12, 2)])
        assert check_legal(d).ok

    def test_overlap_with_sub_tolerance_y_jitter_detected(self):
        # Two overlapping cells whose bottoms differ by 1e-9: exact-float
        # ylo grouping used to split them into separate "rows" and miss
        # the overlap entirely.
        d = build([(1.0, 4, 2), (2.0, 4 + 1e-9, 2)])
        report = check_legal(d)
        assert any("overlap" in e for e in report.errors)


class TestFreeArea:
    def test_placement_blockage_counts_against_free_area(self):
        # Movable area (192) fits the bare die (256) but not the half
        # left free by a layer-0 (below routing_layers_start) blockage.
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 8, tech.row_height)
        b.add_blockage(Rect(0, 8, 16, 16), layer=0)
        report = validate_design(b.build())
        assert any("exceeds free die area" in e for e in report.errors)

    def test_routing_blockage_does_not_reduce_free_area(self):
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 8, tech.row_height)
        b.add_blockage(Rect(0, 8, 16, 16), layer=tech.routing_layers_start)
        assert validate_design(b.build()).ok

    def test_blockage_area_clipped_to_die(self):
        # A placement blockage hanging past the die edge only counts its
        # in-die part (128 of 768); movable area 96 still fits the rest.
        tech = Technology()
        b = DesignBuilder("v", tech, Rect(0, 0, 16, 16))
        for i in range(3):
            b.add_cell(f"c{i}", 4, tech.row_height)
        b.add_blockage(Rect(-16, 8, 32, 24), layer=0)
        assert validate_design(b.build()).ok
