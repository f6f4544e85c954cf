"""Federated-learning simulator with a from-scratch differentiable CNN engine.

The package splits into a small numpy autodiff core (`autodiff`, `gradcheck`),
model construction and cost accounting (`layers`, `models`), optimizers with
adaptive gradient clipping (`optim`), dataset generation and label-skew
partitioning (`data`), federated orchestration (`federated`), reporting and
checkpoints (`reporting`), and a JSON-config CLI (`config`, `cli`).
"""

from .autodiff import NumericsError, ShapeError, Tensor, no_grad
from .config import ExperimentConfig, load_config, parse_experiment
from .data import (Dataset, ks_two, load_cifar10_binary, mean_pairwise_ks,
                   partition_iid, partition_label_skew, synth_dataset)
from .federated import (ClientState, FLMethodConfig, aggregate_fedavg,
                        aggregate_fedbn, local_update, run_federated,
                        yogi_server_step)
from .models import (ArchConfig, Network, calibrate_depths, count_flops,
                     count_params, fedconv_config, fedconv_tiny_config,
                     mean_activation_stat, resnet_m_config)
from .optim import AGCConfig, AdamW, LrSchedule, ParamArena, SGD, lr_at
from .reporting import (ExperimentReport, RoundRecord, evaluate,
                        load_checkpoint, rounds_to_target, save_checkpoint,
                        tms, write_report)

__version__ = "0.1.0"
