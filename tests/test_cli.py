import numpy as np
import pytest

from mnscodec.cli import main
from mnscodec.image import GrayImage, load_pgm, save_pgm

from util import noise_image


def write_pgm(path, image):
    path.write_bytes(save_pgm(image))
    return str(path)


@pytest.fixture
def constant_pgm(tmp_path):
    return write_pgm(tmp_path / "flat.pgm", GrayImage(np.full((48, 48), 90, dtype=np.uint8)))


@pytest.fixture
def noise_pgm(tmp_path):
    return write_pgm(tmp_path / "noise.pgm", noise_image(64, 64, seed=19))


class TestPipeline:
    def test_encode_decode_metrics_constant(self, tmp_path, constant_pgm, capsys):
        mns = tmp_path / "flat.mns"
        out = tmp_path / "flat.out.pgm"
        assert main(["encode", "--in", constant_pgm, "--out", str(mns), "--mode", "mns"]) == 0
        assert main(["decode", "--in", str(mns), "--out", str(out)]) == 0
        assert main(["metrics", "--a", constant_pgm, "--b", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "MSE 0" in printed
        assert "PSNR inf" in printed

    def test_identical_invocations_identical_bytes(self, tmp_path, noise_pgm):
        a = tmp_path / "a.mns"
        b = tmp_path / "b.mns"
        assert main(["encode", "--in", noise_pgm, "--out", str(a), "--mode", "mns"]) == 0
        assert main(["encode", "--in", noise_pgm, "--out", str(b), "--mode", "mns"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_technique2_strictly_smaller_with_level4_leaves(self, tmp_path, noise_pgm):
        on = tmp_path / "on.mns"
        off = tmp_path / "off.mns"
        args = ["encode", "--in", noise_pgm, "--mode", "mns", "--e1", "2", "--e2", "2", "--e3", "2"]
        assert main(args + ["--out", str(on), "--technique2", "on"]) == 0
        assert main(args + ["--out", str(off), "--technique2", "off"]) == 0
        assert len(on.read_bytes()) < len(off.read_bytes())

    def test_decode_matches_library_round_trip(self, tmp_path, noise_pgm, constant_pgm):
        mns = tmp_path / "x.mns"
        out = tmp_path / "x.pgm"
        assert main(["encode", "--in", noise_pgm, "--out", str(mns), "--mode", "ns"]) == 0
        assert main(["decode", "--in", str(mns), "--out", str(out), "--iters", "10", "--stop-delta", "0"]) == 0
        decoded = load_pgm(out.read_bytes())
        assert (decoded.width, decoded.height) == (64, 64)


class TestErrors:
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--out", str(tmp_path / "x.mns")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.mns").exists()

    def test_unknown_flag_is_usage_error(self, constant_pgm, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--in", constant_pgm, "--out", str(tmp_path / "x.mns"), "--sharpness", "9"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["encode", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "x.mns")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.mns").exists()

    def test_corrupt_stream_leaves_no_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.mns"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        out = tmp_path / "y.pgm"
        assert main(["decode", "--in", str(bad), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_e_grid_is_data_error(self, constant_pgm, tmp_path, capsys):
        rc = main(["bench", "rd", "--in", constant_pgm, "--e-grid", "4,spam", "--csv", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "e-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--e1", "--e3", "--tmean"))
    def test_nan_threshold_is_data_error(self, constant_pgm, tmp_path, capsys, flag):
        out = tmp_path / "x.mns"
        assert main(["encode", "--in", constant_pgm, "--out", str(out), flag, "nan"]) == 1
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_stop_delta_is_data_error(self, constant_pgm, tmp_path, capsys):
        mns, out = tmp_path / "x.mns", tmp_path / "y.pgm"
        assert main(["encode", "--in", constant_pgm, "--out", str(mns)]) == 0
        assert main(["decode", "--in", str(mns), "--out", str(out), "--stop-delta", "nan"]) == 1
        assert "stop_delta" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mode_list_is_data_error(self, constant_pgm, tmp_path, capsys):
        rc = main(["bench", "rd", "--in", constant_pgm, "--modes", "ns,warp", "--csv", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "unknown mode" in capsys.readouterr().err


class TestBenchAndAnalyze:
    def test_bench_rd_writes_csv(self, tmp_path, noise_pgm):
        csv_path = tmp_path / "rd.csv"
        rc = main(["bench", "rd", "--in", noise_pgm, "--modes", "ns,mns",
                   "--e-grid", "6,10", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("mode,E1,E2,E3,t2,bits,bpp,psnr,encode_s")
        assert len(lines) == 1 + 4

    def test_analyze_offsets_writes_csv(self, tmp_path, noise_pgm):
        csv_path = tmp_path / "hist.csv"
        rc = main(["analyze", "offsets", "--in", noise_pgm, "--range-size", "8",
                   "--stride", "4", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "section,dx,dy,count"
        x_counts = [int(line.split(",")[3]) for line in lines[1:] if line.startswith("x,")]
        assert sum(x_counts) == 64
