import math
import re

import numpy as np
import pytest

from mnscodec import bench, bitstream
from mnscodec.bench import RD_CSV_COLUMNS, histogram_csv, offset_histogram, rd_csv, rd_sweep
from mnscodec.bitstream import stream_bit_count
from mnscodec.image import GrayImage
from mnscodec.metrics import mse, psnr


class TestMse:
    def test_identical(self, constant_64):
        assert mse(constant_64, constant_64) == 0.0

    def test_uniform_difference(self):
        a = GrayImage(np.full((4, 4), 10, dtype=np.uint8))
        b = GrayImage(np.full((4, 4), 15, dtype=np.uint8))
        assert mse(a, b) == 25.0

    def test_small_case(self):
        assert mse(GrayImage([[0, 0]]), GrayImage([[3, 4]])) == 12.5

    def test_translation_consistency(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 200, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 200, (8, 8), dtype=np.uint8)
        assert mse(a + 50, b + 50) == mse(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            mse(GrayImage([[0]]), GrayImage([[0, 0]]))


class TestPsnr:
    def test_identical_is_infinite(self, constant_64):
        assert psnr(constant_64, constant_64) == math.inf

    def test_full_scale_error_is_zero_db(self):
        assert psnr(GrayImage([[0]]), GrayImage([[255]])) == pytest.approx(0.0)

    def test_uniform_error_five(self):
        a = GrayImage(np.full((4, 4), 100, dtype=np.uint8))
        b = GrayImage(np.full((4, 4), 105, dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2 / 25), abs=1e-9)
        assert psnr(a, b) == pytest.approx(34.1514, abs=1e-3)

    def test_symmetric(self, noise_64, natural_128):
        crop = GrayImage(natural_128.pixels[:64, :64])
        assert psnr(noise_64, crop) == psnr(crop, noise_64)


class TestOffsetHistogram:
    def test_degenerate_spike(self):
        hist = offset_histogram([(0, 0)] * 9)
        assert hist.joint == {(0, 0): 9}
        assert hist.mode_x() == 0 and hist.mode_y() == 0

    def test_marginals_conserve_totals(self):
        rng = np.random.default_rng(31)
        samples = [tuple(map(int, rng.integers(-20, 21, 2))) for _ in range(500)]
        hist = offset_histogram(samples)
        assert sum(hist.joint.values()) == 500
        assert sum(hist.marginal_x.values()) == 500
        assert sum(hist.marginal_y.values()) == 500
        assert hist.total == 500

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            offset_histogram([])

    def test_csv_sections(self):
        text = histogram_csv(offset_histogram([(1, -2), (1, -2), (0, 3)]))
        lines = text.strip().split("\n")
        assert lines[0] == "section,dx,dy,count"
        assert "x,0,,1" in lines and "x,1,,2" in lines
        assert "y,,-2,2" in lines and "y,,3,1" in lines
        assert "joint,1,-2,2" in lines


def strip_time(points):
    return [(p.mode, p.thresholds, p.technique2, p.bits, p.bpp, p.psnr, p.leaf_counts, p.phase2_count) for p in points]


class TestRdSweep:
    def test_single_point(self, constant_64):
        points = rd_sweep(constant_64, ["no_search"], [8.0])
        assert len(points) == 1
        p = points[0]
        assert p.psnr == math.inf
        assert p.bpp == pytest.approx(p.bits / (64 * 64))
        assert p.leaf_counts == (16, 0, 0, 0)

    def test_rate_monotonic_in_threshold(self, natural_128):
        points = rd_sweep(natural_128, ["no_search"], [4.0, 8.0, 16.0])
        bits = [p.bits for p in points]
        assert bits == sorted(bits, reverse=True)

    def test_mns_not_more_bits(self, natural_128):
        ns, mns = rd_sweep(natural_128, ["no_search", "mns"], [5.0])
        assert mns.bits <= ns.bits

    def test_csv_header_and_shape(self, constant_64):
        points = rd_sweep(constant_64, ["no_search", "mns"], [8.0], (True, False))
        text = rd_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(RD_CSV_COLUMNS)
        assert len(lines) == 1 + 4
        assert lines[1].startswith("no_search,8,8,8,1,")

    def test_deterministic_apart_from_timing(self, natural_128):
        a = rd_sweep(natural_128, ["mns"], [6.0, 9.0])
        b = rd_sweep(natural_128, ["mns"], [6.0, 9.0])
        assert strip_time(a) == strip_time(b)

    def test_numpy_scalar_thresholds_give_the_rows_of_an_int(self, natural_128):
        rows = strip_time(rd_sweep(natural_128, ["mns"], [8, (8, 8, 8)]))
        assert rows[0] == rows[1]
        for entry in (np.int64(8), np.float32(8), (np.int64(8), np.float32(8), 8.0)):
            assert strip_time(rd_sweep(natural_128, ["mns"], [entry])) == rows[:1]

    @pytest.mark.parametrize("entry", ["8", "888", (8.0, 8.0), (8.0, 8.0, "8"), None, {"e1": 8}])
    def test_rejects_an_entry_that_is_not_thresholds_before_any_encode(self, constant_64, entry, monkeypatch):
        monkeypatch.setattr(bench, "encode_quadtree", None)  # an encode would raise TypeError
        with pytest.raises(ValueError, match=f"threshold entry {re.escape(repr(entry))} is neither"):
            rd_sweep(constant_64, ["no_search"], [8.0, entry])

    @pytest.mark.parametrize("modes, grid, technique2", [(["mns"], [8.0, math.nan], (True,)),
                                                         (["mns", "bogus"], [8.0], (True,)),
                                                         (["mns"], [8.0], (True, 1))])
    def test_rejects_a_bad_configuration_before_any_encode(self, constant_64, modes, grid, technique2, monkeypatch):
        encodes, encode = [], bench.encode_quadtree
        monkeypatch.setattr(bench, "encode_quadtree", lambda *args: encodes.append(args) or encode(*args))
        with pytest.raises(ValueError):
            rd_sweep(constant_64, modes, grid, technique2)
        assert encodes == []

    @pytest.mark.parametrize("modes, grid, technique2", [([], [8.0], (True,)), (["mns"], [], (True,)),
                                                         (["mns"], [8.0], ()), (["mns"], [8.0], iter(()))],
                             ids=["modes", "threshold_grid", "technique2_options", "an_empty_iterator"])
    def test_rejects_an_empty_input_before_any_encode(self, constant_64, modes, grid, technique2, monkeypatch):
        encodes = []
        monkeypatch.setattr(bench, "encode_quadtree", lambda *args: encodes.append(args))
        with pytest.raises(ValueError, match="at least one mode, one threshold entry and one technique-2 option"):
            rd_sweep(constant_64, modes, grid, technique2)
        assert encodes == []

    def test_iterators_and_arrays_give_the_rows_of_lists(self, constant_64):
        rows = strip_time(rd_sweep(constant_64, ["no_search", "mns"], [8.0, 6.0], [True, False]))
        assert len(rows) == 8
        assert strip_time(rd_sweep(constant_64, iter(["no_search", "mns"]), iter([8.0, 6.0]), iter([True, False]))) == rows
        assert strip_time(rd_sweep(constant_64, ["no_search", "mns"], np.array([8.0, 6.0]), [True, False])) == rows
        with pytest.raises(ValueError, match="threshold entry 'x' is neither"):
            rd_sweep(constant_64, ["mns"], iter([8.0, "x"]))

    def test_serializes_each_point_once(self, natural_128, monkeypatch):
        codes = []
        serialize = bitstream.write_stream

        def counting(code):
            codes.append(code)
            return serialize(code)

        monkeypatch.setattr(bitstream, "write_stream", counting)
        points = rd_sweep(natural_128, ["no_search", "mns"], [6.0], (True, False))
        monkeypatch.undo()
        assert len(codes) == len(points) == 4
        assert [p.bits for p in points] == [stream_bit_count(code) for code in codes]

    def test_rejects_empty_grid(self, constant_64):
        with pytest.raises(ValueError):
            rd_sweep(constant_64, [], [8.0])
