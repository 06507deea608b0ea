"""Experiment configuration: a YAML-backed recipe expanded into concrete
domain specs, model/training/decoding settings, and the seed list."""
from __future__ import annotations

import hashlib
import math
import re
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from . import binio
from .beam import BeamConfig
from .corpus import DomainSpec
from .model import ModelConfig
from .selection import Strategy
from .training import TrainConfig
from .vocab import Vocabulary, default_vocabulary


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed from a master seed and a tag path."""
    material = f"{master}:" + ":".join(str(t) for t in tags)
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "little") % (2 ** 63)


def build_transform(feature_dim: int, strength: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine domain transform I + strength * G with G spectral-normed below
    one, so any strength in [0, 1] stays invertible; bias scales with strength."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError("transform strength must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(feature_dim, feature_dim))
    g *= 0.95 / np.linalg.norm(g, 2)
    scale = np.eye(feature_dim) + strength * g
    bias = strength * 0.5 * rng.normal(size=feature_dim)
    return scale, bias


def build_lexicon(vocab: Vocabulary, n_words: int, seed: int,
                  word_length: tuple[int, int] = (2, 5),
                  exclude: set[str] | None = None) -> tuple[str, ...]:
    """Unique random words over the letter graphemes, with no adjacent
    repeated letters (keeps zero-noise corpora exactly frame-decodable)."""
    letters = [g for i, g in enumerate(vocab.graphemes)
               if i not in (vocab.blank_index, vocab.word_separator_index)]
    rng = np.random.default_rng(seed)
    taken = set(exclude or ())
    words: list[str] = []
    attempts = 0
    while len(words) < n_words:
        attempts += 1
        if attempts > 100000:
            raise ValueError("lexicon generation did not converge; enlarge the alphabet "
                             "or shorten the word list")
        length = int(rng.integers(word_length[0], word_length[1] + 1))
        chars = [letters[int(rng.integers(0, len(letters)))]]
        while len(chars) < length:
            c = letters[int(rng.integers(0, len(letters)))]
            if c != chars[-1]:
                chars.append(c)
        w = "".join(chars)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return tuple(words)


@dataclass
class DomainRecipe:
    """Seeded recipe for one domain; expanded to a DomainSpec per experiment seed."""

    name: str
    train_size: int
    test_size: int
    emission_noise_std: float
    transform_strength: float
    transform_seed: int
    shared_words: int
    unique_words: int
    frames_per_symbol: tuple[int, int] = (2, 4)
    utterance_words: tuple[int, int] = (3, 6)

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.name):
            raise ValueError(f"domain {self.name!r}: name must be letters, digits, '_' or '-' "
                             "(it names the domain's files)")
        if min(self.train_size, self.test_size) < 1:
            raise ValueError(f"domain {self.name!r}: train_size and test_size must be >= 1 "
                             f"(got {self.train_size} and {self.test_size})")
        words = (self.shared_words, self.unique_words)
        if min(words) < 0 or sum(words) < 1:
            raise ValueError(f"domain {self.name!r}: shared_words and unique_words must be >= 0 "
                             f"and not both 0 (got {words[0]} and {words[1]})")
        (flo, fhi), (wlo, whi) = self.frames_per_symbol, self.utterance_words
        for key, ok, rule in (("frames_per_symbol", 1 <= flo <= fhi, "satisfy 1 <= lo <= hi"),
                              ("utterance_words", 1 <= wlo <= whi, "satisfy 1 <= lo <= hi"),
                              ("emission_noise_std", self.emission_noise_std >= 0, "be >= 0"),
                              ("transform_strength", 0 <= self.transform_strength <= 1,
                               "lie in [0, 1]")):
            if not ok:
                raise ValueError(f"domain {self.name!r}: {key} must {rule} "
                                 f"(got {getattr(self, key)})")


def _default_teacher_recipes() -> list[DomainRecipe]:
    # Unequal training sizes on purpose; the mid recipe shares its transform
    # direction with the student domain at a different strength, making it
    # the best-positioned (and best-resourced) teacher.
    return [
        DomainRecipe(name="alpha", train_size=120, test_size=36, emission_noise_std=0.35,
                     transform_strength=0.60, transform_seed=101, shared_words=10, unique_words=8),
        DomainRecipe(name="beta", train_size=280, test_size=36, emission_noise_std=0.30,
                     transform_strength=0.40, transform_seed=777, shared_words=12, unique_words=8),
        DomainRecipe(name="gamma", train_size=100, test_size=36, emission_noise_std=0.30,
                     transform_strength=0.65, transform_seed=303, shared_words=10, unique_words=8),
    ]


def _default_student_recipe() -> DomainRecipe:
    return DomainRecipe(name="delta", train_size=160, test_size=48, emission_noise_std=0.40,
                        transform_strength=0.75, transform_seed=777, shared_words=10,
                        unique_words=8)


@dataclass
class SvccaSettings:
    n_frames: int = 512
    variance_fraction: float = 0.99
    sample_seed: int = 2024


@dataclass
class ExperimentConfig:
    vocabulary_letters: str = "abcdefgh"
    feature_dim: int = 8
    teacher_domains: list[DomainRecipe] = field(default_factory=_default_teacher_recipes)
    student_domain: DomainRecipe = field(default_factory=_default_student_recipe)
    shared_lexicon_size: int = 16
    shared_lexicon_seed: int = 7000
    word_length: tuple[int, int] = (2, 5)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    lm_order: int = 3
    strategies: list[str] = field(default_factory=lambda: [
        "teacher_average", "framewise_max", "elitist"])
    seeds: list[int] = field(default_factory=lambda: [11, 12, 13, 14, 15])
    output_root: str = "runs/default"
    probe_wer_threshold: float | None = 0.15
    svcca: SvccaSettings = field(default_factory=SvccaSettings)

    def __post_init__(self) -> None:
        self._check_rules()

    def _check_rules(self) -> None:
        """Refuse a config whose fields break a rule of the experiment; run
        when the config is built and again by ``validate_ood``."""
        if not self.teacher_domains:
            raise ValueError("config key 'teacher_domains' must list at least one teacher")
        if self.feature_dim < 1:
            raise ValueError("config key 'feature_dim' must be >= 1")
        keys = [f"teacher_domains[{i}]" for i in range(len(self.teacher_domains))]
        for key, recipe in zip([*keys, "student_domain"], self.all_domains()):
            if recipe.shared_words > self.shared_lexicon_size:
                raise ValueError(f"config key '{key}.shared_words' is {recipe.shared_words}, "
                                 f"above 'shared_lexicon_size' ({self.shared_lexicon_size})")
        if not 1 <= self.word_length[0] <= self.word_length[1]:
            raise ValueError("config key 'word_length' must be [min, max] with 1 <= min <= max")
        if self.svcca.n_frames < 2:
            raise ValueError("config key 'svcca.n_frames' must be >= 2")
        if not 0 < self.svcca.variance_fraction <= 1:
            raise ValueError("config key 'svcca.variance_fraction' must lie in (0, 1]")
        if self.probe_wer_threshold is not None and self.probe_wer_threshold < 0:
            raise ValueError("config key 'probe_wer_threshold' must be null or >= 0")
        if self.lm_order < 1:
            raise ValueError("lm_order must be >= 1")
        for key, value in (("model.seed", self.model.seed), ("train.seed", self.train.seed)):
            if value != 0:
                raise ValueError(f"config key {key!r} must be 0: every run derives its model "
                                 "and training seeds from 'seeds'")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for key, values in (("seeds", self.seeds), ("strategies", self.strategies)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"config key {key!r} lists {repeated} more than once")
        known = [s.value for s in Strategy]
        unknown = [s for s in self.strategies if s not in known]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}; choose from {known}")
        if Strategy.ELITIST.value not in self.strategies:
            raise ValueError("strategies must include 'elitist': the svcca stage analyses "
                             "the elitist student's snapshots")
        if len(set(d.name for d in self.all_domains())) != len(self.all_domains()):
            raise ValueError("domain names must be unique")

    def all_domains(self) -> list[DomainRecipe]:
        return [*self.teacher_domains, self.student_domain]

    def vocabulary(self) -> Vocabulary:
        return default_vocabulary(self.vocabulary_letters)

    def validate_ood(self) -> None:
        """The checks a run starts with, which also see fields changed after
        the config was built: the rules of every domain recipe, of the train
        and beam settings and of the config, then that the student domain
        differs from every teacher domain."""
        for part in (*self.all_domains(), self.train, self.beam):
            part.__post_init__()
        self._check_rules()
        self.expand_domains()

    def expand_domains(self) -> dict[str, DomainSpec]:
        """Concrete DomainSpecs; validates that distinct domains actually differ
        and that the student domain is genuinely out-of-domain."""
        vocab = self.vocabulary()
        shared = build_lexicon(vocab, self.shared_lexicon_size, self.shared_lexicon_seed,
                               self.word_length)
        specs: dict[str, DomainSpec] = {}
        used = set(shared)
        for recipe in self.all_domains():
            scale, bias = build_transform(self.feature_dim, recipe.transform_strength,
                                          recipe.transform_seed)
            rng = np.random.default_rng(derive_seed(self.shared_lexicon_seed, "pick", recipe.name))
            pick = sorted(rng.choice(len(shared), size=recipe.shared_words, replace=False).tolist())
            own = build_lexicon(vocab, recipe.unique_words,
                                derive_seed(self.shared_lexicon_seed, "own", recipe.name),
                                self.word_length, exclude=used)
            used |= set(own)
            lexicon = tuple([shared[i] for i in pick] + list(own))
            specs[recipe.name] = DomainSpec(
                name=recipe.name,
                emission_noise_std=recipe.emission_noise_std,
                feature_scale=scale,
                feature_bias=bias,
                frames_per_symbol=recipe.frames_per_symbol,
                utterance_length_range=recipe.utterance_words,
                lexicon=lexicon,
            )
        teachers = [r.name for r in self.teacher_domains]
        for i in range(len(teachers)):
            for j in range(i + 1, len(teachers)):
                if not specs[teachers[i]].differs_from(specs[teachers[j]]):
                    raise ValueError(f"domains {teachers[i]!r} and {teachers[j]!r} are identical; "
                                     "they must differ in transform, noise, or lexicon")
        student = self.student_domain.name
        for t in teachers:
            if not specs[student].differs_from(specs[t]):
                raise ValueError(f"student domain {student!r} does not differ from teacher "
                                 f"domain {t!r}")
        return specs

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _build(cls, d)


def _plain(value):
    """YAML-ready data for a config value: a dataclass becomes a mapping of its
    fields, a tuple or list a list."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _build(cls, mapping, key: str = ""):
    """``cls`` from a mapping of some of its fields (absent ones take their
    defaults), converted by the field types. ValueError names the dotted
    config key (``key`` is the mapping's own, "" the root) of a non-mapping,
    an unknown key, a list field given a non-list, a fixed-length tuple field
    given the wrong number of items, a scalar of the wrong type, a NaN or
    infinite float or the first absent field that has no default."""
    if not isinstance(mapping, dict):
        raise ValueError(f"config key {key!r} must be a mapping")
    hints = typing.get_type_hints(cls)
    prefix = f"{key}." if key else ""
    unknown = [f"{prefix}{k}" for k in mapping if k not in hints]
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    values = {k: _field(hints[k], v, f"{prefix}{k}") for k, v in mapping.items()}
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config key {prefix + f.name!r} is required")
    return cls(**values)


# The values a scalar field takes (an int is a valid float, a bool is not an int).
_SCALARS = {int: (int, "an int"), float: ((int, float), "a number"), str: (str, "a string"),
            bool: (bool, "a bool")}


def _field(tp, value, key: str):
    """One field's value for its type ``tp`` (see ``_build``)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:  # X | None: null keeps the field's default meaning
        return None if value is None else _field(args[0], value, key)
    if is_dataclass(tp):
        return _build(tp, value, key)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r} must be a list")
        if origin is tuple and args[-1] is not Ellipsis:  # tuple[X, Y]: one type per item
            if len(value) != len(args):
                raise ValueError(f"config key {key!r} must be a list of {len(args)} items")
        else:
            args = (args[0],) * len(value)
        items = [_field(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value))]
        return tuple(items) if origin is tuple else items
    if tp in _SCALARS:
        accepts, name = _SCALARS[tp]
        if not isinstance(value, accepts) or (isinstance(value, bool) and tp is not bool):
            raise ValueError(f"config key {key!r} must be {name}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite")
    return value


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """In-place dotted key=value overrides with YAML-parsed values."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like dotted.key=value")
        key, raw = item.split("=", 1)
        node = data
        parts = key.split(".")
        for p in parts[:-1]:
            if node.get(p) is None:  # absent, or a null section
                node[p] = {}
            node = node[p]
            if not isinstance(node, dict):
                raise ValueError(f"override {item!r}: {p!r} is not a mapping")
        try:
            node[parts[-1]] = yaml.safe_load(raw)
        except yaml.YAMLError as e:
            raise ValueError(f"override {item!r}: the value is not valid YAML ({e})") from None
    return data


def load_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load a YAML config (the defaults if ``path`` is None); ``overrides`` are
    dotted key=value pairs that win over file values (values parsed as YAML).
    The config is checked by ``validate_ood``."""
    data = {}
    if path is not None:
        with open(path) as f:
            try:
                data = yaml.safe_load(f) or {}
            except yaml.YAMLError as e:
                raise ValueError(f"{path}: not valid YAML ({e})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config root must be a mapping")
    config = ExperimentConfig.from_dict(apply_overrides(data, overrides or []))
    config.validate_ood()
    return config


def save_config(config: ExperimentConfig, path) -> None:
    binio.atomic_write_text(path, yaml.safe_dump(config.to_dict(), sort_keys=True))
