"""Grayscale fractal image codec.

No-search and modified no-search (MNS) quadtree encoders with fixed
co-centered domains, a bit-exact .mns stream format with level-id sharing,
an iterative contractive decoder, exhaustive/local search baselines, and a
rate-distortion benchmark harness.

A code is a QuadtreeCode: header fields plus a LeafTable, the leaves as
int64 columns, a row per leaf. There are no per-leaf record classes any
more. try_phase1/try_phase2 take a RowBand and an (n, 2) array of block
origins.

API break: the scalar helpers that only test oracles used are gone. mnscodec
no longer exports block_mean or co_domain_rect, and image.block_pixels,
BlockRect.quadrants and encoder.round_to_int are removed. DecodeConfig has
no initial_value field: decode always starts from a flat raster of
decoder.START_VALUE (128). decode_step takes only the plan decode builds
(decoder._plan(code)), not a bare code. EncoderConfig.mode accepts only
no_search and mns. quantize_contrast and dequantize_contrast return numpy
scalars for scalar input.
"""

from .bench import OffsetHistogram, RdPoint, histogram_csv, offset_histogram, rd_csv, rd_sweep
from .bitstream import (
    StreamFormatError,
    leaf_bit_width,
    level_id_bit_count,
    payload_bit_width,
    read_stream,
    stream_bit_count,
    write_stream,
)
from .decoder import DecodeConfig, decode, decode_step
from .encoder import (
    CONTRAST_SETS,
    EncoderConfig,
    LeafTable,
    QuadtreeCode,
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
