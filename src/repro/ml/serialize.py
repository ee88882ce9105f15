"""Model export and CPU inference — the ONNX/SoftNeuro deployment path.

The paper avoids GPU inference on the pool nodes by exporting the trained
Keras model to ONNX (x86-64) / SoftNeuro (A64FX) and running it on CPUs
(Sec. 3.3).  We mirror that split: :func:`save_model` writes a single
``.npz`` holding the architecture config (JSON) plus every weight tensor,
and :class:`InferenceEngine` is the forward-only runtime that pool nodes
load — it never allocates gradient buffers and is the only ML entry point
:mod:`repro.core.pool` uses.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml.unet import UNet3D


def npz_path(path: str | Path) -> Path:
    """The path a model export actually lives at.

    ``np.savez`` silently appends ``.npz`` when the target lacks it, so an
    un-normalized ``save_model(p); load_model(p)`` round trip used to write
    ``p + ".npz"`` and then fail to find ``p``.  Both directions normalize
    through this single rule instead.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_model(model: UNet3D, path: str | Path) -> Path:
    """Serialize architecture + weights to one ``.npz`` file.

    Returns the (suffix-normalized) path the file was written to.
    """
    path = npz_path(path)
    payload: dict[str, np.ndarray] = {
        f"param/{k}": v for k, v in model.params().items()
    }
    payload["config"] = np.frombuffer(
        json.dumps(model.config()).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **payload)
    return path


def load_model(path: str | Path) -> UNet3D:
    """Rebuild a trainable U-Net from a saved file."""
    with np.load(npz_path(path)) as data:
        config = json.loads(bytes(data["config"]).decode("utf-8"))
        model = UNet3D(**config)
        model.load_params(
            {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
        )
    return model


class InferenceEngine:
    """Forward-only CPU runtime for an exported U-Net.

    Usage::

        engine = InferenceEngine.load("surrogate.npz")
        fields_out = engine(fields_in)     # (C_in, n, n, n) -> (C_out, n, n, n)

    An engine built through :meth:`load` remembers its ``model_path``, which
    is what lets :meth:`repro.serve.SurrogateSpec.from_surrogate` derive a
    ``kind="model"`` recipe — a checkpoint then names the export instead of
    holding a copy of every weight tensor.
    """

    def __init__(self, model: UNet3D, model_path: str | Path | None = None) -> None:
        self._model = model
        #: Where the export was loaded from (None for in-memory engines).
        self.model_path: str | None = (
            str(npz_path(model_path)) if model_path is not None else None
        )

    @classmethod
    def load(cls, path: str | Path) -> "InferenceEngine":
        return cls(load_model(path), model_path=path)

    @property
    def in_channels(self) -> int:
        return self._model.in_channels

    @property
    def out_channels(self) -> int:
        return self._model.out_channels

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._model.forward(np.asarray(x, dtype=np.float64))

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Batched forward: (B, C_in, n, n, n) -> (B, C_out, n, n, n).

        This is the pool-node serving path of :mod:`repro.serve` — several
        coalesced SN regions share one pass, so every convolution tap's
        matmul runs at batch width and the per-call overhead is amortized.
        """
        return self._model.forward_batch(np.asarray(x, dtype=np.float64))

    def n_parameters(self) -> int:
        return self._model.n_parameters()
