from .loss import EPS, dice_loss, dice_loss_grad
from .models import SegmentationModel, ThresholdModel, UNetModel
from .train import FitParams, fit
from .unet import ForwardCache, UNetSpec, check_weights, init_weights, parameter_shapes, unet_backward, unet_forward
from .weights import ModelWeights, load_weights, save_weights
