"""Content-relationship distillation for compressing image-to-image GANs.

Generator outputs are sliced into column strips, row strips and patches;
pairwise-distance and triplet-angle structures among those contents are
matched between a teacher and a quarter-width student, trained adversarially
against an online updating-freezing teacher discriminator.
"""

from .autodiff import Tensor, backward, detach, finite_diff_grad, gradcheck, huber
from .slicing import ContentSet, reassemble, split_columns, split_patches, split_rows
from .relations import (
    DistanceStructure, RelationConfig, crd_angle_loss, crd_distance_loss,
    crd_loss, pairwise_distances, phi_a, phi_d, rkd_angle_loss,
    rkd_distance_loss, sample_tuples,
)
from .perceptual import FeatureExtractor, extract, gram, perceptual_loss
from .models import (
    Adam, DiscriminatorSpec, GeneratorSpec, adversarial_losses,
    build_discriminator, build_generator,
)
from .metrics import GaussianStats, fit_gaussian, frechet_distance, pixel_error
from .datasets import SyntheticTask, generate_dataset
from .config import TrainConfig, parse_config
from .training import Trainer, lr_at, train

__version__ = "0.1.0"
