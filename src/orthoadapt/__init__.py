"""orthoadapt: spectral subspace adapters and a synthetic study of why they
generalize — freeze the principal SVD subspace of each weight matrix, train
only the residual subspace, and regularize the two to stay orthogonal."""

from .adapters import (
    FrozenAdapter,
    FullAdapter,
    LoraAdapter,
    RegularizerWeights,
    SvdResidualAdapter,
)
from .analysis import asymmetry_trace, effective_rank, logit_line_fit, projection_export
from .data import Dataset, FakeMethod, SyntheticSpec, gen_dataset
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    PretrainingFailure,
    StateError,
    ValidationError,
)
from .experiment import (
    ExperimentReport,
    PretrainConfig,
    TrainConfig,
    accuracy_at_half,
    adam_step,
    finetune_run,
    pretrain,
    rank_sweep,
    roc_auc,
    train,
)
from .linalg import frobenius_sq, pca, reconstruct, split, svd, sym_eig
from .model import BackboneConfig, ToyModel, adapt_model, cls_loss, init_model, model_forward

__version__ = "0.1.0"
