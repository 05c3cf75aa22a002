"""DNN workloads and a LUT-pluggable quantised inference engine.

* :mod:`repro.nn.zoo` — layer tables of the paper's four workloads
  (VGG16, VGG19, ResNet50, ResNet152) at 224x224;
* :mod:`repro.nn.quantize` — symmetric int8 quantisation helpers;
* :mod:`repro.nn.inference` — a numpy conv/fc engine whose inner
  multiply is pluggable (exact or an approximate LUT) — the same
  mechanism ApproxTrain uses;
* :mod:`repro.nn.synthetic` — deterministic synthetic classification
  task + prototype-classifier weights (the offline stand-in for an
  ImageNet subset; its module docstring says why).
"""

from repro.nn.zoo import (
    vgg16,
    vgg19,
    resnet50,
    resnet152,
    workload,
    WORKLOAD_NAMES,
)
from repro.nn.quantize import QuantParams, quantize_tensor, dequantize_tensor
from repro.nn.inference import QuantCNN, ConvSpec, DenseSpec, PoolSpec
from repro.nn.synthetic import SyntheticTask, make_task

__all__ = [
    "vgg16",
    "vgg19",
    "resnet50",
    "resnet152",
    "workload",
    "WORKLOAD_NAMES",
    "QuantParams",
    "quantize_tensor",
    "dequantize_tensor",
    "QuantCNN",
    "ConvSpec",
    "DenseSpec",
    "PoolSpec",
    "SyntheticTask",
    "make_task",
]
