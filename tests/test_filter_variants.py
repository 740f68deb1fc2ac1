"""Extra coverage: filter shape-paths, window-filter variants, sweep status."""

import pytest

from repro.approximations.factory import compute_approximation
from repro.core.filters import FilterConfig
from repro.core.window import (
    WindowQueryProcessor,
    WindowQueryStats,
    _approx_intersects_rect,
)
from repro.exact.costmodel import POSITION, OperationCounter
from repro.exact.planesweep import _SweepStatus
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from tests.conftest import star_polygon


class TestApproxRectIntersection:
    """_approx_intersects_rect over all three shape families."""

    @pytest.fixture(scope="class")
    def poly(self):
        return star_polygon(n=24, seed=13)

    @pytest.mark.parametrize("kind", ["MBR", "5-C", "CH", "MBC", "MBE", "MER", "MEC"])
    def test_overlapping_window(self, poly, kind):
        approx = compute_approximation(poly, kind)
        center = poly.mbr().center
        window = Rect(center[0] - 0.1, center[1] - 0.1, center[0] + 0.1, center[1] + 0.1)
        assert _approx_intersects_rect(approx, window)

    @pytest.mark.parametrize("kind", ["MBR", "5-C", "MBC", "MBE"])
    def test_distant_window(self, poly, kind):
        approx = compute_approximation(poly, kind)
        assert not _approx_intersects_rect(approx, Rect(50, 50, 51, 51))

    @pytest.mark.parametrize("kind", ["5-C", "MBC", "MBE"])
    def test_window_cutting_corner(self, poly, kind):
        """Window overlapping the MBR corner but not the shape itself."""
        approx = compute_approximation(poly, kind)
        mbr = approx.mbr()
        # A tiny window hugging the MBR corner from inside: for rounded
        # shapes this region is empty, for the MBR itself it is not.
        eps = min(mbr.width, mbr.height) * 0.01
        corner_window = Rect(mbr.xmin, mbr.ymin, mbr.xmin + eps, mbr.ymin + eps)
        # Rounded shapes usually miss their own MBR corner; whatever the
        # verdict, it must be consistent with corner-point containment:
        # a shape containing the corner point certainly meets the window.
        if approx.contains_point((mbr.xmin, mbr.ymin)):
            assert _approx_intersects_rect(approx, corner_window)


class TestWindowFilterVariants:
    @pytest.mark.parametrize(
        "config",
        [
            FilterConfig(conservative="MBC", progressive="MEC"),
            FilterConfig(conservative="MBE", progressive=None),
            FilterConfig(conservative="CH", progressive="MER"),
        ],
        ids=lambda c: c.describe(),
    )
    def test_all_variants_match_oracle(self, tiny_europe, config):
        from repro.geometry.fastops import polygons_intersect_fast

        proc = WindowQueryProcessor(tiny_europe, filter_config=config)
        window = Rect(0.25, 0.25, 0.55, 0.5)
        window_poly = Polygon(window.corners())
        got = {o.oid for o in proc.window_query(window)}
        want = {
            o.oid
            for o in tiny_europe
            if o.mbr.intersects(window)
            and polygons_intersect_fast(o.polygon, window_poly)
        }
        assert got == want


class TestSweepStatus:
    def test_insert_orders_by_y(self):
        counter = OperationCounter()
        status = _SweepStatus(counter)
        low = (0, (0.0, 0.0), (1.0, 0.0))
        high = (1, (0.0, 1.0), (1.0, 1.0))
        mid = (0, (0.0, 0.5), (1.0, 0.5))
        status.insert(low, 0.0)
        status.insert(high, 0.0)
        idx = status.insert(mid, 0.0)
        assert idx == 1
        assert counter.counts.get(POSITION, 0) > 0

    def test_remove_returns_index(self):
        status = _SweepStatus(None)
        e1 = (0, (0.0, 0.0), (1.0, 0.0))
        e2 = (1, (0.0, 1.0), (1.0, 1.0))
        status.insert(e1, 0.0)
        status.insert(e2, 0.0)
        assert status.remove(e1) == 0
        assert len(status) == 1

    def test_at_out_of_range(self):
        status = _SweepStatus(None)
        assert status.at(-1) is None
        assert status.at(0) is None
