"""Experiment configuration: file schema, env overrides, corpus presets."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ConfigError
from ..inference import InferenceClient, MockBackend, OpenAIClient, SamplingParams
from ..prompts import Strategy
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

# Desk-scale default corpus: 40 kk puzzles per character count plus
# 30 zebra puzzles (20 easy, 10 hard capped at 4x4).
DESK_KK_PER_SIZE = 40
DESK_KK_SIZES = (3, 4, 5, 6)
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
    if type(size) is not int or not 3 <= size <= 6:  # the sizes generate_kk makes
        raise ConfigError(f"{where}: {size!r} is not an integer from 3 to 6")


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

    def strategy_pool(self) -> list[Strategy]:
        return [Strategy.from_key(k) for k in self.strategies]


def _known(obj: Any, where: str, keys: tuple[str, ...]) -> dict[str, Any]:
    """``obj`` as the config object at ``where``; a key the loader does not
    read is an error, so a misspelt setting never falls back silently."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config {where} must be an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {unknown}; known: {list(keys)}")
    return obj


def _cast(obj: dict[str, Any], key: str, cast: Callable[[Any], Any], default: Any, where: str = "") -> Any:
    """``cast(obj[key])``, or the default when the key is absent; a value
    the cast rejects is a ConfigError naming the setting."""
    if key not in obj:
        return default
    try:
        return cast(obj[key])
    except (TypeError, ValueError) as exc:
        setting = f"{where}.{key}" if where else key
        raise ConfigError(f"config {setting}: {obj[key]!r} is not a valid value ({exc})") from None


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value: Any) -> int:
    if type(value) is not int:  # int() would truncate a float and take a boolean
        raise TypeError("expected an integer")
    return value


def _choice(obj: dict[str, Any], key: str, choices: tuple[str, ...], where: str) -> str:
    """``obj[key]``, or the first choice when the key is absent; any value
    that is not one of the choices is a ConfigError naming the setting."""
    value = obj.get(key, choices[0])
    if value not in choices:
        raise ConfigError(f"config {where}.{key}: {value!r} is not one of {list(choices)}")
    return value


def _backend_from_obj(obj: Any, where: str) -> BackendConfig:
    keys = ("kind", "base_url", "model", "api", "api_key", "api_key_env", "script", "max_retries", "timeout")
    obj = _known(obj, where, keys)
    api_key = obj.get("api_key")
    if api_key is None and obj.get("api_key_env"):
        api_key = os.environ.get(str(obj["api_key_env"]))
    return BackendConfig(
        kind=_choice(obj, "kind", ("openai", "mock"), where),
        base_url=obj.get("base_url", ""),
        model=obj.get("model", ""),
        api=_choice(obj, "api", ("chat", "completions"), where),
        api_key=api_key,
        script_path=obj.get("script"),
        max_retries=_cast(obj, "max_retries", _integer, 3, where),
        timeout=_cast(obj, "timeout", float, 120.0, where),
    )


def _apply_env_overrides(backend: BackendConfig) -> BackendConfig:
    backend.base_url = os.environ.get(ENV_ENDPOINT, backend.base_url)
    backend.model = os.environ.get(ENV_MODEL, backend.model)
    backend.api_key = os.environ.get(ENV_API_KEY, backend.api_key)
    return backend


# how each key of the sampling block is read; a null seed is no seed
_SAMPLING_CASTS = {
    "top_p": float, "temperature": float, "max_tokens": _integer, "top_k": _integer,
    "seed": lambda v: None if v is None else _integer(v),
}
_TOP_KEYS = (
    "run_dir", "corpus", "strategies", "criteria", "sampling", "lambda_p", "lambda_e",
    "instruction_tags", "samples", "concurrency", "replay", "backend", "verifier_backend",
)


def config_from_obj(obj: dict[str, Any], base_dir: str = ".") -> ExperimentConfig:
    def resolve(path: str | None) -> str | None:
        if path is None:
            return None
        return path if os.path.isabs(path) else os.path.join(base_dir, path)

    obj = _known(obj, "top level", _TOP_KEYS)
    corpus = _known(obj.get("corpus", {}), "corpus", ("path", "generate"))
    generate = None
    if "generate" in corpus:
        gen = _known(
            corpus["generate"], "corpus.generate", ("preset", "kk_sizes", "kk_per_size", "zebra_configs", "seed")
        )
        if "preset" not in gen:
            generate = GenerateSpec(
                kk_sizes=_cast(gen, "kk_sizes", tuple, (), "corpus.generate"),
                kk_per_size=_cast(gen, "kk_per_size", _integer, 0, "corpus.generate"),
                zebra_configs=_cast(gen, "zebra_configs", lambda v: tuple(map(tuple, v)), (), "corpus.generate"),
                seed=_cast(gen, "seed", _integer, 0, "corpus.generate"),
            )
        elif gen["preset"] == "desk" and set(gen) <= {"preset", "seed"}:
            generate = desk_generate_spec(_cast(gen, "seed", _integer, 0, "corpus.generate"))
        else:
            raise ConfigError(f"corpus.generate {gen}: the one preset is 'desk', and it takes only a seed")

    sampling_obj = _known(obj.get("sampling", {}), "sampling", tuple(_SAMPLING_CASTS))
    try:
        sampling = SamplingParams(
            **{key: _cast(sampling_obj, key, _SAMPLING_CASTS[key], None, "sampling") for key in sampling_obj}
        )
    except ValueError as exc:
        raise ConfigError(f"sampling: {exc}") from None

    strategies = _cast(obj, "strategies", lambda v: v if isinstance(v, str) else tuple(v), "all")
    if isinstance(strategies, str):
        if strategies not in STRATEGY_POOL_PRESETS:
            raise ConfigError(f"unknown strategy preset {strategies!r}")
        strategies = STRATEGY_POOL_PRESETS[strategies]

    backend = _apply_env_overrides(_backend_from_obj(obj.get("backend", {}), "backend"))
    if backend.script_path:
        backend.script_path = resolve(backend.script_path)
    verifier_backend = None
    if "verifier_backend" in obj:
        verifier_backend = _backend_from_obj(obj["verifier_backend"], "verifier_backend")
        if verifier_backend.script_path:
            verifier_backend.script_path = resolve(verifier_backend.script_path)

    return ExperimentConfig(
        run_dir=resolve(obj["run_dir"]),
        corpus_path=resolve(corpus.get("path")),
        generate=generate,
        strategies=strategies,
        criteria=_cast(obj, "criteria", tuple, CRITERIA),
        sampling=sampling,
        lambda_p=_cast(obj, "lambda_p", float, 0.5),
        lambda_e=_cast(obj, "lambda_e", float, 0.5),
        instruction_tags=_cast(obj, "instruction_tags", _boolean, False),
        samples=_cast(obj, "samples", _integer, 1),
        concurrency=_cast(obj, "concurrency", _integer, 4),
        replay=_cast(obj, "replay", _boolean, False),
        backend=backend,
        verifier_backend=verifier_backend,
    )


def config_from_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    return config_from_obj(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def desk_generate_spec(seed: int = 0) -> GenerateSpec:
    return GenerateSpec(
        kk_sizes=DESK_KK_SIZES,
        kk_per_size=DESK_KK_PER_SIZE,
        zebra_configs=DESK_ZEBRA_CONFIGS,
        seed=seed,
    )
