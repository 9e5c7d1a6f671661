"""Coarse-to-fine volumetric binary segmentation.

A two-stage slice-based CNN cascade with connected-component abnormality
detection and correction between the stages, plus the synthetic-phantom
harness used to verify it end to end at desk scale.
"""

from .bench import CaseScore, EvalReport, PhantomSpec, dsc, evaluate_split, generate_phantom, summarize
from .components import (
    AbnormalityVerdict,
    ComponentStats,
    classify,
    component_stats,
    label_components,
)
from .config import RunConfig, default_config, load_config, parse_config
from .errors import FormatError, GeometryError, TrainingDivergedError
from .fileio import read_nifti, read_volume, write_volume
from .geometry import (
    CropRecord,
    ResizeRecord,
    crop_patch,
    resample_volume,
    resize_slice,
    uncrop_patch,
    unresize,
)
from .nn import (
    FitParams,
    ModelWeights,
    SegmentationModel,
    ThresholdModel,
    UNetModel,
    UNetSpec,
    dice_loss,
    dice_loss_grad,
    fit,
    load_weights,
    save_weights,
    unet_backward,
    unet_forward,
)
from .pipeline import (
    CaseResult,
    PipelineConfig,
    StageModels,
    build_guidance,
    predict_coarse,
    predict_fine,
    prepare_abnormal_set,
    prepare_coarse_set,
    prepare_fine_set,
    run_case,
)
from .volume import (
    LabelMap3D,
    Mask3D,
    Spacing,
    Volume3D,
    binarize,
    compose_slices,
    extract_slices,
    voxel_volume_ml,
)

__version__ = "0.1.0"
