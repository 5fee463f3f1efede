"""Plain-text key=value run configs.

One file can carry simulation, model, and training keys together, and
`load_config` reads it into one `RunConfig`: each dataclass takes the
fields it knows, and a key that none knows is an error. Values are coerced
while the file is parsed, by the type of the dataclass default: ints,
floats, strict booleans, comma-separated tuples and loss weights. When
`init_checkpoint` is set, the checkpoint's header fixes the model, so the
loaded config carries no model of its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib

from .harness import TrainConfig, crop_samples
from .losses import LossWeights
from .mixsim import SimConfig
from .model import UsevConfig

_BUILDERS = (SimConfig, UsevConfig, TrainConfig)
# Keys only the model knows; a checkpoint's header fixes them instead.
_MODEL_ONLY = ({f.name for f in dataclasses.fields(UsevConfig)}
               - {f.name for f in dataclasses.fields(SimConfig)})
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


@dataclasses.dataclass
class RunConfig:
    sim: SimConfig
    model: UsevConfig | None  # None when init_checkpoint fixes the model
    train: TrainConfig


def load_config(path=None) -> RunConfig:
    """The run config in `path`, or every default when path is None. Each
    value is coerced by the type of its dataclass default and each
    dataclass checked on the result, as is the training crop against the
    model. Errors name the file, and the line and the key where one is to
    blame. A model-only key next to init_checkpoint is an error too."""
    defaults = {f.name: getattr(cls(), f.name)
                for cls in _BUILDERS for f in dataclasses.fields(cls)}
    out, lines = {}, {}
    with open(path) if path else contextlib.nullcontext(()) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in defaults:
                near = difflib.get_close_matches(key, defaults, n=1)
                hint = f"; did you mean {near[0]!r}?" if near else ""
                raise ValueError(f"{path}: line {lineno}: unknown config key "
                                 f"{key!r}{hint}")
            try:
                out[key] = _coerce(defaults[key], val)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: config key {key!r}: "
                                 f"{e}") from None
            lines[key] = lineno
    clash = [k for k in out if k in _MODEL_ONLY]
    if out.get("init_checkpoint") and clash:
        raise ValueError(f"{path}: line {lines[clash[0]]}: model key "
                         f"{clash[0]!r} next to init_checkpoint, whose "
                         "checkpoint fixes the model")
    # Cross-field checks live in each dataclass's __post_init__; run them
    # here, where the file is known. So does the training crop, unless a
    # checkpoint's model replaces this file's, when train checks it.
    try:
        sim, model, train = (
            cls(**{f.name: out[f.name] for f in dataclasses.fields(cls)
                   if f.name in out}) for cls in _BUILDERS)
        if train.init_checkpoint:
            model = None
        else:
            crop_samples(train, model)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return RunConfig(sim, model, train)


def _coerce(default, raw: str):
    if isinstance(default, bool):
        if raw.lower() not in _BOOLS:
            raise ValueError(f"expected a boolean ({'/'.join(_BOOLS)}), got {raw!r}")
        return _BOOLS[raw.lower()]
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return parse_numbers(raw, len(default))
    if isinstance(default, LossWeights):
        return parse_weights(raw)
    return raw


def parse_numbers(raw: str, width: int) -> tuple:
    """'a,b,...': exactly `width` comma-separated numbers."""
    parts = tuple(float(x) for x in raw.split(","))
    if len(parts) != width:
        raise ValueError(f"expected {width} comma-separated numbers, got {raw!r}")
    return parts


def parse_weights(raw: str) -> LossWeights:
    """'alpha,beta,gamma,delta': exactly 4 finite numbers >= 0."""
    return LossWeights(*parse_numbers(raw, len(dataclasses.fields(LossWeights))))
