"""chatterkit: peak-feature chatter detection for machining vibration signals."""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    CuttingConfig,
    LabeledDataset,
    RawLabel,
    TimeSeries,
    load_manifest,
    split_by_config,
    to_binary,
)
from .errors import ChatterKitError, PeakShortfall  # noqa: F401
from .featurize import FeatureMatrix, PipelineConfig, build_matrix, extract_features  # noqa: F401
from .peaks import Peak, PeakConstraints, find_peaks, min_peak_height  # noqa: F401
from .preprocess import apply_filter, decimate, design_butterworth_lowpass  # noqa: F401
from .transform import amplitude_spectrum, autocorrelation, power_spectral_density  # noqa: F401
