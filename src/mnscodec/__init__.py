"""Grayscale fractal image codec.

No-search and modified no-search (MNS) quadtree encoders with fixed
co-centered domains, a bit-exact .mns stream format with level-id sharing,
an iterative contractive decoder, exhaustive/local search baselines, and a
rate-distortion benchmark harness.

A code is a QuadtreeCode: header fields plus a LeafTable, the leaves as
int64 columns, a row per leaf, defined with check_code in mnscodec.code.
encode_quadtree(image, EncoderConfig) makes one; write_stream and
read_stream turn it into .mns bytes and back, and stream_bit_count and
level_id_bit_count sum the writer's field widths; decode(code,
DecodeConfig) rebuilds the GrayImage. try_phase1/try_phase2 score the
moments encoder._block_moments gathers, level and config by keyword.
decode_step(plan, raster, out) runs one sweep of a decoder._plan(code).
"""

from .bench import OffsetHistogram, RdPoint, histogram_csv, offset_histogram, rd_csv, rd_sweep
from .bitstream import (
    StreamFormatError,
    level_id_bit_count,
    read_stream,
    stream_bit_count,
    write_stream,
)
from .code import CONTRAST_SETS, LeafTable, QuadtreeCode
from .decoder import DecodeConfig, decode, decode_step
from .encoder import (
    EncoderConfig,
    RowBand,
    encode_full_search,
    encode_local_search,
    encode_quadtree,
    try_phase1,
    try_phase2,
)
from .image import (
    BlockRect,
    GrayImage,
    PgmFormatError,
    downsample_mean2,
    load_pgm,
    pad_to_multiple,
    save_pgm,
)
from .metrics import mse, psnr
from .transform import (
    AffineParams,
    apply_map,
    dequantize_contrast,
    fit_affine,
    quantize_contrast,
    rms_error,
)

__version__ = "0.1.0"
