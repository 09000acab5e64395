"""Spline-kernel (Kolmogorov-Arnold) convolutional layers with matched
classical baselines, from-scratch training, efficiency accounting, and an
ablation sweep harness."""

from .errors import (CkanError, ConfigError, ConsistencyError,
                     DimensionError, FormatError, StateError)
from .splines import (BasisFamily, SplineSpec, bspline_spec, rbf_bandwidth,
                      rbf_centers, rbf_spec)
from .layers import (Activation, Conv1D, Conv2D, Flatten, GlobalAvgPool1D,
                     KanConv1D, KanConv2D, KanLinear, Linear, MaxPool1D,
                     MaxPool2D, Reshape)
from .models import (ModelGraph, build_alexnet, build_from_config,
                     build_lenet, build_lenet_kan, build_lenet_kan_full,
                     build_tabular_cnn, load_model_config, model_config,
                     save_model_config)
from .training import (AdamConfig, AdamState, EarlyStopper, FitResult,
                       RunReport, adam_init, adam_step, bce_multilabel,
                       evaluate_model, fit, softmax_cross_entropy)
from .evaluation import (LatencyProfile, MetricsBlock, MetricsReport,
                         PruneMask, apply_prune_mask, finetune_pruned,
                         latency_profile, metrics_report, multilabel_metrics,
                         prune_channels_l2, topk_metrics)
from .data import (Dataset, load_mnist_dir, load_mnist_idx,
                   load_tabular_csv, read_idx, split_dataset,
                   subset_dataset, synthetic_digits, synthetic_multilabel,
                   write_idx_images, write_idx_labels, write_synthetic_mnist)
from .sweep import (CellResult, SweepCell, SweepConfig, default_sweep_config,
                    emit_reports, enumerate_grid, normalize_radar,
                    parse_sweep_config, run_cell, run_sweep)
from .checkpoint import (load_checkpoint, read_state, save_checkpoint,
                         save_state)

__version__ = "0.1.0"
