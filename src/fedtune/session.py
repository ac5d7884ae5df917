"""Config-driven session runner: world building, modes, sweep, report.

A session is a pure function of (config, seed): the synthetic task, the
non-IID partition, the frozen backbone, client selection, and every
training step derive from named substreams of the session seed, so the
emitted trace is byte-identical across runs. Every mode runs the one loop
in ``configurator.run_session``: ``autofed`` from the configurator's first
dispatch, the fixed baselines from one track built by ``_fixed_scheme``.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import adapter as adapter_mod
from . import configurator as conf_mod
from . import costmodel
from . import data as data_mod
from . import model as model_mod
from . import trace as trace_mod
from .adapter import AdapterConfig, TuningScheme
from .configurator import ConfiguratorParams, ConfiguratorState, TrialTrack
from .costmodel import BUILTIN_DEVICE_PROFILES, DeviceProfile, NetworkProfile
from .errors import ConfigurationError, TraceParseError
from .fed import Batch, ClientState, ServerState
from .model import ModelSpec
from .tensor_nn import SeededRng

MODES = ("autofed", "fixed_adapter", "full_ft", "layer_freeze")

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_NOT_CONVERGED = 3


@dataclass
class SessionConfig:
    seed: int
    mode: str
    model: ModelSpec
    task: data_mod.SyntheticTaskSpec
    num_clients: int = 40
    participants_per_group: int = 5          # N; total budget is 3N
    noniid_concentration: float = 10.0
    batch_size: int = 4
    local_epochs: int = 1
    learning_rate: float = 0.1
    cache_enabled: bool = True
    fixed_depth: int = 0                     # fixed_adapter mode
    fixed_width: int = 8
    monolithic_adapters: bool = True
    freeze_layers: int = 0                   # layer_freeze mode
    devices: dict[str, float] = field(default_factory=lambda: {"tx2": 1.0})
    custom_devices: dict[str, DeviceProfile] = field(default_factory=dict)
    network: NetworkProfile = costmodel.DEFAULT_NETWORK
    target_accuracy: float | None = None
    relative_targets: list[float] = field(default_factory=lambda: [0.99, 0.95, 0.90])
    max_rounds: int = 100
    configurator: ConfiguratorParams = field(default_factory=ConfiguratorParams)

    def participants_total(self) -> int:
        return 3 * self.participants_per_group

    def to_dict(self) -> dict:
        """Every field as plain data; ``config_from_dict`` reads it back."""
        return asdict(self)


def _require(condition: bool, fieldname: str, reason: str) -> None:
    if not condition:
        raise ConfigurationError(f"field '{fieldname}': {reason}")


def _check_keys(doc: dict, allowed, prefix: str = "") -> None:
    unknown = sorted(str(k) for k in set(doc) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown config key '{prefix}{unknown[0]}' (allowed: {', '.join(sorted(allowed))})")


@functools.cache
def _field_types(cls) -> dict:
    """The resolved field annotations of ``cls``; resolving them is most of a parse."""
    return typing.get_type_hints(cls)


def _from_doc(cls, doc, path: str, base: dict):
    """The dataclass ``cls`` built from the mapping ``doc`` at ``path``.

    Each value is coerced to its field's type. A key absent from ``doc``
    takes its value from ``base``, then from the field's default. Unknown
    keys, and keys with no value from any of these, are ConfigurationErrors
    that name the key's full path.
    """
    prefix = f"{path}." if path else ""
    _require(isinstance(doc, dict), path, "mapping required")
    _check_keys(doc, [f.name for f in fields(cls)], prefix)
    hints = _field_types(cls)
    values = {}
    for f in fields(cls):
        fallback = base.get(f.name, f.default)
        if fallback is MISSING and f.default_factory is not MISSING:
            fallback = f.default_factory()
        if f.name in doc:
            values[f.name] = _coerce(hints[f.name], doc[f.name], prefix + f.name, fallback)
        elif fallback is not MISSING:
            values[f.name] = fallback
    missing = [prefix + f.name for f in fields(cls) if f.name not in values]
    if missing:
        raise ConfigurationError(f"missing key(s) {', '.join(missing)}")
    return cls(**values)


def _coerce(hint, value, path: str, fallback):
    """``value`` as type ``hint``; a nested section's absent keys come from ``fallback``."""
    if is_dataclass(hint):
        return _from_doc(hint, value, path, {} if fallback is MISSING else vars(fallback))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        [inner] = [a for a in args if a is not type(None)]
        return None if value is None else _coerce(inner, value, path, MISSING)
    if origin is list:
        _require(isinstance(value, list), path, "list required")
        return [_coerce(args[0], v, path, MISSING) for v in value]
    if origin is dict:
        if isinstance(value, str) and args[1] is float:
            value = {value: 1.0}  # one name takes the whole share
        _require(isinstance(value, dict), path, "mapping required")
        if not is_dataclass(args[1]):
            return {str(k): _coerce(args[1], v, f"{path}.{k}", MISSING) for k, v in value.items()}
        # an entry is named by its key
        out = {str(k): _from_doc(args[1], v, f"{path}.{k}", {"name": str(k)})
               for k, v in value.items()}
        for key, entry in out.items():
            _require(entry.name == key, f"{path}.{key}.name", f"must equal its key '{key}'")
        return out
    # bool(value) and int(value) would take "false" as True and 2.9 as 2
    if hint is bool or isinstance(value, bool):
        _require(hint is bool and isinstance(value, bool), path,
                 f"expected {hint.__name__}, got {value!r}")
        return value
    if hint is int and isinstance(value, float):
        _require(value.is_integer(), path, f"expected int, got {value!r}")
    try:
        return hint(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"field '{path}': expected {hint.__name__}, got {value!r}") from None


def config_from_dict(doc: dict) -> SessionConfig:
    """Build and validate a SessionConfig from a parsed YAML document.

    The schema is the dataclass fields of SessionConfig and its sections,
    with their defaults. A key the schema does not know, at any level, is a
    ConfigurationError: a typo must not silently fall back to the default.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a mapping")
    model = _from_doc(ModelSpec, doc.get("model"), "model", {})
    # the task inherits its shape from the model so the two cannot disagree
    shape = {key: getattr(model, key) for key in ("vocab", "seqlen", "num_labels")}
    cfg = _from_doc(SessionConfig, doc, "", {"task": data_mod.SyntheticTaskSpec(**shape)})
    for key, value in shape.items():
        _require(getattr(cfg.task, key) == value, f"task.{key}",
                 f"must equal model.{key} ({value})")
    _validate(cfg)
    return cfg


def _validate(cfg: SessionConfig) -> None:
    _require(cfg.mode in MODES, "mode", f"must be one of {MODES}, got '{cfg.mode}'")
    # SeededRng keeps a seed's low 64 bits: -1 would share every stream with 2**64 - 1
    _require(0 <= cfg.seed < 2**64, "seed", "must be in [0, 2**64)")
    if cfg.target_accuracy is not None:
        _require(0.0 <= cfg.target_accuracy <= 1.0, "target_accuracy", "must be in [0, 1]")
    _require(cfg.num_clients >= 1, "num_clients", "must be >= 1")
    _require(cfg.participants_per_group >= 1, "participants_per_group", "must be >= 1")
    _require(cfg.participants_total() <= cfg.num_clients, "participants_per_group",
             f"3N={cfg.participants_total()} exceeds num_clients={cfg.num_clients}")
    _require(cfg.batch_size >= 1, "batch_size", "must be >= 1")
    _require(cfg.local_epochs >= 1, "local_epochs", "must be >= 1")
    _require(cfg.learning_rate >= 0, "learning_rate", "must be >= 0")
    _require(cfg.noniid_concentration > 0, "noniid_concentration", "must be > 0")
    _require(cfg.max_rounds >= 1, "max_rounds", "must be >= 1")
    for name in cfg.devices:
        _require(name in BUILTIN_DEVICE_PROFILES or name in cfg.custom_devices,
                 "devices", f"unknown device profile '{name}'")
    if cfg.mode == "fixed_adapter":
        _require(0 <= cfg.fixed_depth <= cfg.model.num_layers, "fixed_depth",
                 f"must be in [0, {cfg.model.num_layers}]")
        _require(cfg.fixed_width >= adapter_mod.MIN_WIDTH, "fixed_width",
                 f"must be >= {adapter_mod.MIN_WIDTH}")
        if not cfg.monolithic_adapters:
            _require(cfg.fixed_width % cfg.configurator.width_step == 0, "fixed_width",
                     "stacked mode needs width to be a multiple of the width step")
    if cfg.mode == "layer_freeze":
        _require(0 <= cfg.freeze_layers < cfg.model.num_layers, "freeze_layers",
                 f"must be in [0, {cfg.model.num_layers - 1}]")
    if cfg.mode == "autofed":
        conf = cfg.configurator
        _require(0 <= conf.start_depth <= cfg.model.num_layers, "configurator.start_depth",
                 f"must be in [0, {cfg.model.num_layers}]")
        _require(conf.depth_step >= 1, "configurator.depth_step", "must be >= 1")
        _require(conf.width_step >= 1, "configurator.width_step", "must be >= 1")
        _require(conf.start_width >= adapter_mod.MIN_WIDTH, "configurator.start_width",
                 f"must be >= {adapter_mod.MIN_WIDTH}")
        _require(conf.start_width % conf.width_step == 0, "configurator.start_width",
                 "must be a multiple of the width step")
        _require(conf.trial_intvl_s is None or conf.trial_intvl_s > 0,
                 "configurator.trial_intvl_s", "must be > 0")
        _require(conf.intvl_growth > 0, "configurator.intvl_growth", "must be > 0")


def load_config(path: str, seed: int | None = None) -> SessionConfig:
    """Parse and validate the YAML config at ``path``; ``seed`` overrides its seed.

    The override is validated with the rest of the document, so an
    out-of-range seed is refused like one written in the file.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as err:
        raise ConfigurationError(f"cannot read config '{path}': {err}") from None
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# world construction
# ---------------------------------------------------------------------------

@dataclass
class World:
    config: SessionConfig
    backbone: model_mod.ModelState
    server: ServerState
    test_tokens: np.ndarray
    test_labels: np.ndarray
    adapter_rng: SeededRng


def _device_assignment(cfg: SessionConfig, client_ids: list[int]) -> dict[int, DeviceProfile]:
    profiles = dict(BUILTIN_DEVICE_PROFILES)
    profiles.update(cfg.custom_devices)
    names = sorted(cfg.devices)
    fractions = np.array([cfg.devices[n] for n in names], dtype=np.float64)
    counts = data_mod.largest_remainder(fractions / fractions.sum(), len(client_ids))
    assignment = {}
    cursor = 0
    for name, count in zip(names, counts):
        for cid in client_ids[cursor:cursor + count]:
            assignment[cid] = profiles[name]
        cursor += count
    return assignment


def build_world(cfg: SessionConfig) -> World:
    root = SeededRng(cfg.seed)
    dataset = data_mod.generate_task(cfg.task, root.spawn("task"))
    shard_indices = data_mod.partition_noniid(
        dataset, cfg.num_clients, cfg.noniid_concentration, root.spawn("partition"))
    backbone = model_mod.build_model(cfg.model, root.spawn("model").seed)
    split_rng = root.spawn("split")
    batch_rng = root.spawn("batches")
    registry: dict[int, ClientState] = {}
    device_of = _device_assignment(cfg, sorted(shard_indices))
    test_tokens_parts, test_labels_parts = [], []
    for cid in sorted(shard_indices):
        shard = data_mod.split_train_test(dataset, shard_indices[cid], cid, split_rng)
        order = batch_rng.permutation(shard.train_tokens.shape[0])
        tokens, labels = shard.train_tokens[order], shard.train_labels[order]
        batches = [
            Batch(i, tokens[s:s + cfg.batch_size], labels[s:s + cfg.batch_size])
            for i, s in enumerate(range(0, tokens.shape[0], cfg.batch_size))
        ]
        registry[cid] = ClientState(
            id=cid, train_batches=batches, device=device_of[cid], net=cfg.network)
        test_tokens_parts.append(shard.test_tokens)
        test_labels_parts.append(shard.test_labels)
    server = ServerState(registry=registry, rng_select=root.spawn("select"))
    return World(
        config=cfg, backbone=backbone, server=server,
        test_tokens=np.concatenate(test_tokens_parts),
        test_labels=np.concatenate(test_labels_parts),
        adapter_rng=root.spawn("adapters"),
    )


# ---------------------------------------------------------------------------
# session execution
# ---------------------------------------------------------------------------

def _fixed_scheme(cfg: SessionConfig) -> TuningScheme:
    if cfg.mode == "fixed_adapter":
        step = cfg.fixed_width if cfg.monolithic_adapters else cfg.configurator.width_step
        return TuningScheme("adapter", AdapterConfig(cfg.fixed_depth, cfg.fixed_width, step))
    if cfg.mode == "full_ft":
        return TuningScheme("full")
    if cfg.mode == "layer_freeze":
        return TuningScheme("freeze", frozen_layers=cfg.freeze_layers)
    raise ConfigurationError(f"mode '{cfg.mode}' has no fixed scheme")


@dataclass
class SessionResult:
    reached: bool
    exit_code: int
    summary: dict
    events: list[dict]


def _initial_tracks(world: World, state: ConfiguratorState | None) -> list[TrialTrack]:
    """The configurator's first dispatch, or the one track of a fixed mode."""
    if state is not None:
        return conf_mod.dispatch(state, None, world.backbone, world.adapter_rng)
    scheme = _fixed_scheme(world.config)
    model = adapter_mod.materialize(world.backbone, scheme, payload=None,
                                    rng=world.adapter_rng)
    return [TrialTrack(conf_mod.TRACK_CURRENT, adapter_mod.extract_payload(model, scheme))]


def run_session_config(cfg: SessionConfig, trace_path: str) -> SessionResult:
    """Execute one session and stream its trace to ``trace_path``."""
    world = build_world(cfg)
    with trace_mod.TraceWriter(trace_path) as writer:
        writer.emit({"evt": "session", "version": trace_mod.TRACE_VERSION,
                     "config": cfg.to_dict()})
        state = ConfiguratorState(cfg.configurator) if cfg.mode == "autofed" else None
        outcome = conf_mod.run_session(
            state, _initial_tracks(world, state), world.server, world.backbone,
            test_tokens=world.test_tokens, test_labels=world.test_labels,
            participants_total=cfg.participants_total(),
            epochs=cfg.local_epochs, lr=cfg.learning_rate,
            cache_enabled=cfg.cache_enabled,
            target_accuracy=cfg.target_accuracy,
            max_rounds=cfg.max_rounds,
            adapter_rng=world.adapter_rng,
            writer=writer,
        )
        summary = _summarize(writer.events, cfg, outcome)
        writer.emit(summary)
    if cfg.target_accuracy is None or outcome.reached:
        code = EXIT_OK
    else:
        code = EXIT_NOT_CONVERGED
    return SessionResult(outcome.reached, code, summary, writer.events)


def _traffic_bytes(rounds: list[dict]) -> int:
    """Wire bytes of ``round`` events: each participant downloads and uploads one payload."""
    return sum(2 * e["payload_bytes"] * len(e["participants"]) for e in rounds)


def _summarize(events: list[dict], cfg: SessionConfig,
               outcome: conf_mod.SessionOutcome) -> dict:
    rounds = trace_mod.events_of_kind(events, "round")
    energy = sum(e["energy_j"] for e in rounds)
    hits = sum(e["cache_hits"] for e in rounds)
    recomputes = sum(e["cache_recomputes"] for e in rounds)
    return {
        "evt": "summary",
        "mode": cfg.mode,
        "seed": cfg.seed,
        "reached": outcome.reached,
        "target_accuracy": cfg.target_accuracy,
        "time_to_target": outcome.time_to_target,
        "rounds": outcome.rounds,
        "best_accuracy": outcome.best_accuracy,
        "traffic_bytes": _traffic_bytes(rounds),
        "energy_j": energy,
        "cache_hits": hits,
        "cache_recomputes": recomputes,
        "depth_increases": sum(b["max_depth"] > a["max_depth"]
                               for a, b in zip(rounds, rounds[1:])),
        "configs_visited": [list(c) for c in outcome.configs_visited],
    }


# ---------------------------------------------------------------------------
# post-hoc analysis
# ---------------------------------------------------------------------------

def time_to_accuracy(events: list[dict], relative_target: float,
                     reference_accuracy: float) -> float | None:
    """Earliest clock at which any track's evaluation met the relative target."""
    if reference_accuracy <= 0:
        raise ConfigurationError("reference_accuracy must be > 0")
    threshold = relative_target * reference_accuracy
    times = [e["clock"] for e in trace_mod.events_of_kind(events, "eval")
             if e["accuracy"] >= threshold]
    return min(times) if times else None


def sweep(cfg: SessionConfig, grid: list[tuple[int, int]], out_dir: str,
          reference_accuracy: float | None = None) -> list[dict]:
    """Run fixed-adapter sessions for every (depth, width) on shared seeds.

    The reference accuracy for relative targets defaults to the converged
    accuracy of a full fine-tuning run on the same seed. Every grid point
    is validated before any session runs.
    """
    if not grid:
        raise ConfigurationError("sweep grid must be non-empty")
    runs = [replace(cfg, mode="fixed_adapter", fixed_depth=depth, fixed_width=width,
                    target_accuracy=None) for depth, width in grid]
    for run_cfg in runs:
        _validate(run_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if reference_accuracy is None:
        ref_cfg = replace(cfg, mode="full_ft", target_accuracy=None)
        ref_result = run_session_config(ref_cfg, str(out / "reference_full_ft.trace.jsonl"))
        reference_accuracy = ref_result.summary["best_accuracy"]
    rows = []
    for (depth, width), run_cfg in zip(grid, runs):
        trace_path = out / f"fixed_d{depth}_w{width}.trace.jsonl"
        result = run_session_config(run_cfg, str(trace_path))
        row = {
            "depth": depth, "width": width, "trace": str(trace_path),
            "best_accuracy": result.summary["best_accuracy"],
            "traffic_bytes": result.summary["traffic_bytes"],
            "reference_accuracy": reference_accuracy,
        }
        for target in cfg.relative_targets:
            row[f"tta_{target}"] = time_to_accuracy(result.events, target, reference_accuracy)
        rows.append(row)
    return rows


def report(paths: list[str]) -> dict:
    """Aggregate totals across traces and check them against each summary."""
    sessions = []
    totals = {"traffic_bytes": 0, "energy_j": 0.0, "rounds": 0}
    for path in paths:
        events = trace_mod.read_trace(path)
        summaries = trace_mod.events_of_kind(events, "summary")
        if len(summaries) != 1:
            raise TraceParseError(f"{path}: expected exactly one summary event")
        summary = summaries[0]
        rounds = trace_mod.events_of_kind(events, "round")
        traffic = _traffic_bytes(rounds)
        if traffic != summary["traffic_bytes"]:
            raise TraceParseError(
                f"{path}: traffic accounting mismatch "
                f"(events {traffic} vs summary {summary['traffic_bytes']})")
        per_client: dict[str, dict] = {}
        for e in rounds:
            for cid, joules in e.get("client_energy", {}).items():
                entry = per_client.setdefault(str(cid), {"traffic_bytes": 0,
                                                         "energy_j": 0.0, "rounds": 0})
                entry["traffic_bytes"] += 2 * e["payload_bytes"]
                entry["energy_j"] += joules
                entry["rounds"] += 1
        sessions.append({
            "path": path,
            "mode": summary["mode"],
            "seed": summary["seed"],
            "reached": summary["reached"],
            "time_to_target": summary["time_to_target"],
            "rounds": summary["rounds"],
            "best_accuracy": summary["best_accuracy"],
            "traffic_bytes": summary["traffic_bytes"],
            "energy_j": summary["energy_j"],
            "depth_increases": summary["depth_increases"],
            "configs_visited": summary["configs_visited"],
            "per_client": per_client,
        })
        totals["traffic_bytes"] += summary["traffic_bytes"]
        totals["energy_j"] += summary["energy_j"]
        totals["rounds"] += summary["rounds"]
    return {"sessions": sessions, "totals": totals}
