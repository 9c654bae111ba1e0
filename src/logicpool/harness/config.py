"""Experiment configuration: file schema, env overrides, corpus presets."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ConfigError
from ..inference import InferenceClient, MockBackend, OpenAIClient, SamplingParams
from ..jsonl import is_number
from ..prompts import Strategy
from ..puzzles.knights import KK_SIZES
from ..puzzles.zebra import MAX_ATTRS, MAX_HOUSES
from ..selection import CRITERIA

ENV_ENDPOINT = "LOGICPOOL_ENDPOINT"
ENV_API_KEY = "LOGICPOOL_API_KEY"
ENV_MODEL = "LOGICPOOL_MODEL"

ALL_STRATEGY_KEYS = tuple(s.key for s in Strategy)
# Pool preset matching the four strategy prompts without the baseline.
STRATEGY_POOL_PRESETS = {
    "all": ALL_STRATEGY_KEYS,
    "strategies_only": ALL_STRATEGY_KEYS[1:],
}

# Desk-scale default corpus: 40 kk puzzles per character count that
# generate_kk makes, plus 30 zebra puzzles (20 easy, 10 hard capped at 4x4).
DESK_KK_PER_SIZE = 40
DESK_ZEBRA_CONFIGS = (
    (2, 2, 4),
    (2, 3, 4),
    (2, 4, 4),
    (2, 5, 4),
    (2, 6, 4),
    (3, 4, 3),
    (4, 2, 3),
    (4, 3, 2),
    (4, 4, 2),
)


def check_kk_size(size: Any, where: str) -> None:
    if type(size) is not int or size not in KK_SIZES:
        raise ConfigError(f"{where}: {size!r} is not an integer from {KK_SIZES[0]} to {KK_SIZES[-1]}")


def check_zebra_shape(houses: int, attrs: int, where: str) -> None:
    if not (2 <= houses <= MAX_HOUSES and 2 <= attrs <= MAX_ATTRS):  # the shapes generate_zebra makes
        raise ConfigError(f"{where}: {houses}x{attrs} is not a shape from 2x2 to {MAX_HOUSES}x{MAX_ATTRS}")


@dataclass
class BackendConfig:
    kind: str = "openai"  # "openai" or "mock"
    base_url: str = ""
    model: str = ""
    api: str = "chat"
    api_key: str | None = None
    script_path: str | None = None  # mock only
    max_retries: int = 3
    timeout: float = 120.0

    def build(self) -> InferenceClient:
        if self.kind == "mock":
            if not self.script_path:
                raise ConfigError("mock backend needs a script path")
            return MockBackend.from_file(self.script_path)
        if not self.base_url or not self.model:
            raise ConfigError("openai backend needs base_url and model")
        return OpenAIClient(
            base_url=self.base_url,
            model=self.model,
            api_key=self.api_key,
            api=self.api,
            max_retries=self.max_retries,
            timeout=self.timeout,
        )


@dataclass
class GenerateSpec:
    kk_sizes: tuple[int, ...] = ()
    kk_per_size: int = 0
    zebra_configs: tuple[tuple[int, int, int], ...] = ()  # (houses, attrs, count)
    seed: int = 0


@dataclass
class ExperimentConfig:
    run_dir: str
    corpus_path: str | None = None
    generate: GenerateSpec | None = None
    strategies: tuple[str, ...] = ALL_STRATEGY_KEYS
    criteria: tuple[str, ...] = CRITERIA
    sampling: SamplingParams = field(default_factory=SamplingParams)
    lambda_p: float = 0.5
    lambda_e: float = 0.5
    instruction_tags: bool = False
    samples: int = 1
    concurrency: int = 4
    replay: bool = False
    backend: BackendConfig = field(default_factory=BackendConfig)
    verifier_backend: BackendConfig | None = None  # None: share the backend

    def __post_init__(self) -> None:
        if bool(self.corpus_path) == bool(self.generate):
            raise ConfigError("config needs exactly one of corpus path / generate spec")
        unknown = [c for c in self.criteria if c not in CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}; known: {list(CRITERIA)}")
        if not self.strategies:
            raise ConfigError("config strategies: the pool is empty; give at least one strategy")
        unknown = [s for s in self.strategies if s not in ALL_STRATEGY_KEYS]
        if unknown:
            raise ConfigError(f"config strategies: unknown {unknown}; known: {list(ALL_STRATEGY_KEYS)}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategy pool has duplicates")
        if not 0 <= self.lambda_p <= 1 or not 0 <= self.lambda_e <= 1:
            raise ConfigError("lambda values must lie in [0, 1]")
        if self.samples < 1 or self.concurrency < 1:
            raise ConfigError("samples and concurrency must be >= 1")
        if self.generate is not None:
            for size in self.generate.kk_sizes:
                check_kk_size(size, "config corpus.generate.kk_sizes")
            if self.generate.kk_sizes and self.generate.kk_per_size < 1:
                raise ConfigError(
                    f"config corpus.generate.kk_per_size: {self.generate.kk_per_size!r} is not an integer >= 1"
                )
            for entry in self.generate.zebra_configs:
                if len(entry) != 3 or any(type(value) is not int for value in entry):
                    raise ConfigError(
                        f"config corpus.generate.zebra_configs: {list(entry)} is not [houses, attrs, count] integers"
                    )
                houses, attrs, count = entry
                if count < 1:
                    raise ConfigError(f"config corpus.generate.zebra_configs: {list(entry)} has a count below 1")
                check_zebra_shape(houses, attrs, "config corpus.generate.zebra_configs")
            if not self.generate.kk_sizes and not self.generate.zebra_configs:
                raise ConfigError(
                    "config corpus.generate: generates no puzzles; give kk_sizes and kk_per_size, "
                    "zebra_configs, or the desk preset"
                )

    def strategy_pool(self) -> list[Strategy]:
        """The pool's strategies in enum order, the order of a pool's records."""
        return sorted(Strategy.from_key(k) for k in self.strategies)


def _settings(obj: Any, where: str, casts: dict[str, Callable[[Any], Any]]) -> dict[str, Any]:
    """The settings of the config object at ``where`` ("" for the top level),
    each value through its key's cast. A key without a cast is an error, so a
    misspelt setting never falls back silently, and so is a value its cast
    refuses. A cast's None (a null string or sampling seed) leaves the setting
    out, so its dataclass default holds."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config {where or 'top level'} must be an object")
    unknown = sorted(set(obj) - set(casts))
    if unknown:
        raise ConfigError(f"unknown config keys in {where or 'top level'}: {unknown}; known: {list(casts)}")
    settings = {}
    for key, value in obj.items():
        try:
            settings[key] = casts[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            setting = f"{where}.{key}" if where else key
            raise ConfigError(f"config {setting}: {value!r} is not a valid value ({exc})") from None
    return {key: value for key, value in settings.items() if value is not None}


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value: Any) -> int:
    if type(value) is not int:  # int() would truncate a float and take a boolean
        raise TypeError("expected an integer")
    return value


def _number(value: Any) -> float:
    if not is_number(value) or not math.isfinite(value):  # float() would take "0.5", "inf" and true
        raise TypeError("expected a finite number")
    return float(value)


def _count(value: Any) -> int:
    if _integer(value) < 0:
        raise ValueError("expected an integer >= 0")
    return value


def _positive(value: Any) -> float:
    number = _number(value)
    if number <= 0:
        raise ValueError("expected a number > 0")
    return number


def _string(value: Any) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _list(value: Any) -> tuple[Any, ...]:
    if not isinstance(value, list):  # tuple() would split a bare string into letters
        raise TypeError("expected a list")
    return tuple(value)


def _choice(*choices: str) -> Callable[[Any], str]:
    def cast(value: Any) -> str:
        if value not in choices:
            raise ValueError(f"not one of {list(choices)}")
        return value

    return cast


def _strategy_pool(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):  # a preset name
        return STRATEGY_POOL_PRESETS[_choice(*STRATEGY_POOL_PRESETS)(value)]
    return _list(value)


_SAMPLING_CASTS = {
    "top_p": _number, "temperature": _number, "max_tokens": _integer, "top_k": _integer,
    "seed": lambda value: None if value is None else _integer(value),
}
_GENERATE_CASTS = {
    "preset": _choice("desk"), "kk_sizes": _list, "kk_per_size": _integer,
    "zebra_configs": lambda value: tuple(map(tuple, _list(value))), "seed": _integer,
}


def _sampling_params(value: Any) -> SamplingParams:
    try:
        return SamplingParams(**_settings(value, "sampling", _SAMPLING_CASTS))
    except ValueError as exc:  # a value outside the range SamplingParams takes
        raise ConfigError(f"sampling: {exc}") from None


def _generate_spec(value: Any) -> GenerateSpec:
    """An explicit spec, or the desk preset with at most a seed."""
    settings = _settings(value, "corpus.generate", _GENERATE_CASTS)
    preset = settings.pop("preset", None)
    if preset is None:
        return GenerateSpec(**settings)
    if set(settings) - {"seed"}:
        raise ConfigError(f"config corpus.generate: preset {preset!r} takes only a seed, not {sorted(settings)}")
    return desk_generate_spec(**settings)


def _backend_config(value: Any, where: str, path: Callable[[Any], str | None]) -> BackendConfig:
    settings = _settings(value, where, {
        "kind": _choice("openai", "mock"), "base_url": _string, "model": _string,
        "api": _choice("chat", "completions"), "api_key": _string,
        "api_key_env": _string,  # the variable that holds the key when api_key is not given
        "script": path,  # the mock's script file
        "max_retries": _count, "timeout": _positive,
    })
    key_env = settings.pop("api_key_env", None)
    if key_env and "api_key" not in settings:
        settings["api_key"] = os.environ.get(key_env)
    if "script" in settings:
        settings["script_path"] = settings.pop("script")
    return BackendConfig(**settings)


def config_from_obj(obj: dict[str, Any], base_dir: str = ".") -> ExperimentConfig:
    """The experiment a parsed config file describes. Each object (the top
    level, ``corpus``, ``corpus.generate``, ``sampling``, ``backend``,
    ``verifier_backend``) is read through one table that maps each of its keys
    to a cast, so every setting has one JSON type and every default lives on
    the dataclasses. A null string setting or sampling seed means the setting
    is left out; any other null, a value of the wrong type, an unknown key or
    a missing ``run_dir`` is a ConfigError naming the setting. Relative paths
    resolve against ``base_dir``; the environment overrides apply to
    ``backend`` only."""

    def path(value: Any) -> str | None:
        if _string(value) == "":
            raise ValueError("expected a non-empty path")
        return value if value is None or os.path.isabs(value) else os.path.join(base_dir, value)

    settings = _settings(obj, "", {
        "run_dir": path,
        "corpus": lambda value: _settings(value, "corpus", {"path": path, "generate": _generate_spec}),
        "strategies": _strategy_pool, "criteria": _list, "sampling": _sampling_params,
        "lambda_p": _number, "lambda_e": _number, "instruction_tags": _boolean,
        "samples": _integer, "concurrency": _integer, "replay": _boolean,
        "backend": lambda value: _backend_config(value, "backend", path),
        "verifier_backend": lambda value: _backend_config(value, "verifier_backend", path),
    })
    if "run_dir" not in settings:
        raise ConfigError("config run_dir: missing; a run needs a directory to write to")
    backend = settings.setdefault("backend", BackendConfig())
    backend.base_url = os.environ.get(ENV_ENDPOINT, backend.base_url)
    backend.model = os.environ.get(ENV_MODEL, backend.model)
    backend.api_key = os.environ.get(ENV_API_KEY, backend.api_key)
    corpus = settings.pop("corpus", {})
    return ExperimentConfig(**settings, corpus_path=corpus.get("path"), generate=corpus.get("generate"))


def config_from_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path}: not a JSON config file ({exc})") from None
    return config_from_obj(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def desk_generate_spec(seed: int = 0) -> GenerateSpec:
    return GenerateSpec(
        kk_sizes=KK_SIZES,
        kk_per_size=DESK_KK_PER_SIZE,
        zebra_configs=DESK_ZEBRA_CONFIGS,
        seed=seed,
    )
