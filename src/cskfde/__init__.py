"""cskfde: TLED/QLED colour-shift-keying link simulation with cyclic-prefix
block transmission and frequency-domain zero-forcing equalisation over
diffuse optical wireless channels."""

from . import channel, colorimetry, config, errors, fde, harness, modem
from .channel import (
    G_QLED,
    G_TLED,
    ChannelModel,
    NoiseModel,
    apply_channel,
    calibrate,
    discretize_impulse_response,
)
from .colorimetry import (
    Chromaticity,
    Constellation,
    SourceSet,
    build_constellation,
    build_qled_constellation,
    build_tled_constellation,
    default_qled_sources,
    default_tled_sources,
)
from .fde import build_zfe, dft, equalize, equalize_block, idft
from .harness import (
    BerCurve,
    BerPoint,
    ExperimentConfig,
    LinkSimulator,
    PowerRequirement,
    data_rate,
    find_power_requirement,
    run_ber_curve,
    run_ber_point,
)
from .modem import frame, ml_detect

__version__ = "0.1.0"
