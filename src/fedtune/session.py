"""Config-driven session runner: world building, modes, sweep, report.

A session is a pure function of (config, seed): the synthetic task, the
non-IID partition, the frozen backbone, client selection, and every
training step derive from named substreams of the session seed, so the
emitted trace is byte-identical across runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import adapter as adapter_mod
from . import cache as cache_mod
from . import configurator as conf_mod
from . import costmodel
from . import data as data_mod
from . import fed as fed_mod
from . import model as model_mod
from . import trace as trace_mod
from .adapter import AdapterConfig, TuningScheme
from .configurator import ConfiguratorState, TrialTrack
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
class ConfiguratorParams:
    start_depth: int = 0
    start_width: int = 8
    depth_step: int = 1
    width_step: int = 8
    trial_intvl_s: float | None = None
    intvl_growth: float = 1.0


@dataclass
class SessionConfig:
    seed: int
    mode: str
    model: ModelSpec
    task: data_mod.SyntheticTaskSpec
    num_clients: int
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
    relative_targets: tuple[float, ...] = (0.99, 0.95, 0.90)
    max_rounds: int = 100
    configurator: ConfiguratorParams = field(default_factory=ConfiguratorParams)

    def participants_total(self) -> int:
        return 3 * self.participants_per_group

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "mode": self.mode,
            "model": self.model.to_dict(), "task": self.task.to_dict(),
            "num_clients": self.num_clients,
            "participants_per_group": self.participants_per_group,
            "noniid_concentration": self.noniid_concentration,
            "batch_size": self.batch_size, "local_epochs": self.local_epochs,
            "learning_rate": self.learning_rate, "cache_enabled": self.cache_enabled,
            "fixed_depth": self.fixed_depth, "fixed_width": self.fixed_width,
            "monolithic_adapters": self.monolithic_adapters,
            "freeze_layers": self.freeze_layers,
            "devices": dict(self.devices),
            "network": {"uplink_bytes_per_s": self.network.uplink_bytes_per_s,
                        "downlink_bytes_per_s": self.network.downlink_bytes_per_s},
            "target_accuracy": self.target_accuracy,
            "relative_targets": list(self.relative_targets),
            "max_rounds": self.max_rounds,
            "configurator": {
                "start_depth": self.configurator.start_depth,
                "start_width": self.configurator.start_width,
                "depth_step": self.configurator.depth_step,
                "width_step": self.configurator.width_step,
                "trial_intvl_s": self.configurator.trial_intvl_s,
                "intvl_growth": self.configurator.intvl_growth,
            },
        }


def _require(condition: bool, fieldname: str, reason: str) -> None:
    if not condition:
        raise ConfigurationError(f"field '{fieldname}': {reason}")


def _section(doc: dict, name: str, allowed, required=(), prefix: str = "") -> dict:
    """The mapping ``doc[name]`` (empty if absent), checked against its schema.

    Unknown keys and missing ``required`` keys are ConfigurationErrors that
    name the key's full path, ``prefix`` + ``name`` + "." + key.
    """
    path = f"{prefix}{name}"
    section = doc.get(name, {})
    _require(isinstance(section, dict), path, "mapping required")
    _check_keys(section, allowed, f"{path}.")
    missing = [k for k in required if k not in section]
    _require(not missing, path, f"missing key(s) {', '.join(missing)}")
    return section


def _check_keys(doc: dict, allowed, prefix: str = "") -> None:
    unknown = sorted(str(k) for k in set(doc) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown config key '{prefix}{unknown[0]}' (allowed: {', '.join(sorted(allowed))})")


def config_from_dict(doc: dict) -> SessionConfig:
    """Build and validate a SessionConfig from a parsed YAML document.

    A key the schema does not know, at the top level or inside ``model``,
    ``task``, ``network``, ``configurator`` or a custom device profile, is a
    ConfigurationError: a typo must not silently fall back to the default.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a mapping")
    _check_keys(doc, [f.name for f in fields(SessionConfig)])
    _require("mode" in doc, "mode", "is required")
    _require(doc["mode"] in MODES, "mode", f"must be one of {MODES}, got '{doc['mode']}'")
    _require("model" in doc and isinstance(doc["model"], dict), "model", "mapping required")
    _require("seed" in doc, "seed", "is required")
    model_keys = [f.name for f in fields(ModelSpec)]
    model_spec = ModelSpec.from_dict(_section(doc, "model", model_keys, model_keys))
    task_doc = _section(doc, "task", [f.name for f in fields(data_mod.SyntheticTaskSpec)])
    # the task inherits its shape from the model so the two cannot disagree
    for key in ("vocab", "seqlen", "num_labels"):
        _require(task_doc.get(key, getattr(model_spec, key)) == getattr(model_spec, key),
                 f"task.{key}", f"must equal model.{key} ({getattr(model_spec, key)})")
    task_spec = data_mod.SyntheticTaskSpec(
        vocab=model_spec.vocab, seqlen=model_spec.seqlen, num_labels=model_spec.num_labels,
        teacher_seed=int(task_doc.get("teacher_seed", 7)),
        samples_per_label=int(task_doc.get("samples_per_label", 100)),
        noise_rate=float(task_doc.get("noise_rate", 0.0)),
    )
    devices_doc = doc.get("devices", "tx2")
    if isinstance(devices_doc, str):
        devices = {devices_doc: 1.0}
    elif isinstance(devices_doc, dict):
        devices = {str(k): float(v) for k, v in devices_doc.items()}
    else:
        raise ConfigurationError("field 'devices': must be a name or a name->fraction mapping")
    custom_doc = doc.get("custom_devices", {})
    _require(isinstance(custom_doc, dict), "custom_devices", "mapping required")
    device_keys = [f.name for f in fields(DeviceProfile) if f.name != "name"]
    custom = {
        name: DeviceProfile(name=name, **_section(custom_doc, name, device_keys, device_keys,
                                                  prefix="custom_devices."))
        for name in custom_doc
    }
    net_doc = _section(doc, "network", [f.name for f in fields(NetworkProfile)])
    network = NetworkProfile(
        uplink_bytes_per_s=float(net_doc.get("uplink_bytes_per_s", 1_000_000)),
        downlink_bytes_per_s=float(net_doc.get("downlink_bytes_per_s", 1_000_000)),
    )
    conf_doc = _section(doc, "configurator", [f.name for f in fields(ConfiguratorParams)])
    params = ConfiguratorParams(
        start_depth=int(conf_doc.get("start_depth", 0)),
        start_width=int(conf_doc.get("start_width", 8)),
        depth_step=int(conf_doc.get("depth_step", 1)),
        width_step=int(conf_doc.get("width_step", 8)),
        trial_intvl_s=(None if conf_doc.get("trial_intvl_s") is None
                       else float(conf_doc["trial_intvl_s"])),
        intvl_growth=float(conf_doc.get("intvl_growth", 1.0)),
    )
    cfg = SessionConfig(
        seed=int(doc["seed"]),
        mode=doc["mode"],
        model=model_spec,
        task=task_spec,
        num_clients=int(doc.get("num_clients", 40)),
        participants_per_group=int(doc.get("participants_per_group", 5)),
        noniid_concentration=float(doc.get("noniid_concentration", 10.0)),
        batch_size=int(doc.get("batch_size", 4)),
        local_epochs=int(doc.get("local_epochs", 1)),
        learning_rate=float(doc.get("learning_rate", 0.1)),
        cache_enabled=bool(doc.get("cache_enabled", True)),
        fixed_depth=int(doc.get("fixed_depth", 0)),
        fixed_width=int(doc.get("fixed_width", 8)),
        monolithic_adapters=bool(doc.get("monolithic_adapters", True)),
        freeze_layers=int(doc.get("freeze_layers", 0)),
        devices=devices,
        custom_devices=custom,
        network=network,
        target_accuracy=(None if doc.get("target_accuracy") is None
                         else float(doc["target_accuracy"])),
        relative_targets=tuple(float(t) for t in doc.get("relative_targets", (0.99, 0.95, 0.90))),
        max_rounds=int(doc.get("max_rounds", 100)),
        configurator=params,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: SessionConfig) -> None:
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
        _require(cfg.configurator.start_depth <= cfg.model.num_layers, "configurator.start_depth",
                 "cannot exceed the model depth")
        _require(cfg.configurator.depth_step >= 1, "configurator.depth_step", "must be >= 1")
        _require(cfg.configurator.width_step >= 1, "configurator.width_step", "must be >= 1")


def load_config(path: str) -> SessionConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
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
            id=cid, train_batches=batches,
            test_tokens=shard.test_tokens, test_labels=shard.test_labels,
            device=device_of[cid], net=cfg.network)
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


def _run_fixed_session(world: World, writer: trace_mod.TraceWriter) -> conf_mod.SessionOutcome:
    cfg = world.config
    scheme = _fixed_scheme(cfg)
    model = adapter_mod.materialize(world.backbone, scheme, payload=None,
                                    rng=world.adapter_rng)
    track = TrialTrack("current", adapter_mod.extract_payload(model, scheme))
    depth = scheme.tuning_depth(cfg.model.num_layers)
    width = scheme.adapter.width if scheme.adapter else 0
    writer.emit({"evt": "dispatch", "iteration": 0, "clock": 0.0,
                 "base_depth": depth, "base_width": width,
                 "tracks": [{"track": "current", "depth": depth, "width": width}]})
    cache_enabled = cfg.cache_enabled and scheme.kind != "full"
    store = model_mod.EvalStore(world.backbone, world.test_tokens)
    best = 0.0
    reached = False
    time_to_target = None
    rounds = 0
    while rounds < cfg.max_rounds and not reached:
        report = fed_mod.run_round(
            world.server, [track], cfg.participants_total(),
            backbone=world.backbone, epochs=cfg.local_epochs, lr=cfg.learning_rate,
            cache_enabled=cache_enabled)
        rounds = report.round_index
        stat = report.tracks[0]
        writer.emit({
            "evt": "round", "round": report.round_index, "track": "current",
            "max_depth": report.max_depth, "clock": track.clock,
            "round_seconds": stat.round_seconds, "payload_bytes": stat.payload_bytes,
            "participants": stat.participants, "energy_j": stat.energy_joules,
            "client_energy": stat.client_energy,
            "cache_hits": stat.cache_hits, "cache_recomputes": stat.cache_recomputes,
            "train_samples": stat.train_samples,
        })
        [acc] = conf_mod.evaluate_tracks([track], world.backbone, store,
                                         world.test_tokens, world.test_labels)
        track.acc_history.append((track.clock, acc))
        writer.emit({"evt": "eval", "round": report.round_index, "track": "current",
                     "clock": track.clock, "accuracy": acc})
        best = max(best, acc)
        if cfg.target_accuracy is not None and acc >= cfg.target_accuracy:
            reached = True
            time_to_target = track.clock
    return conf_mod.SessionOutcome(reached, time_to_target, rounds, best,
                                   [(depth, width)])


def run_session_config(cfg: SessionConfig, trace_path: str) -> SessionResult:
    """Execute one session and stream its trace to ``trace_path``."""
    world = build_world(cfg)
    with trace_mod.TraceWriter(trace_path) as writer:
        writer.emit({"evt": "session", "version": trace_mod.TRACE_VERSION,
                     "config": cfg.to_dict()})
        if cfg.mode == "autofed":
            state = ConfiguratorState(
                start_depth=cfg.configurator.start_depth,
                start_width=cfg.configurator.start_width,
                depth_step=cfg.configurator.depth_step,
                width_step=cfg.configurator.width_step,
                trial_intvl=cfg.configurator.trial_intvl_s,
                intvl_growth=cfg.configurator.intvl_growth,
            )
            outcome = conf_mod.run_session(
                state, world.server, world.backbone,
                test_tokens=world.test_tokens, test_labels=world.test_labels,
                participants_total=cfg.participants_total(),
                epochs=cfg.local_epochs, lr=cfg.learning_rate,
                cache_enabled=cfg.cache_enabled,
                target_accuracy=cfg.target_accuracy,
                max_rounds=cfg.max_rounds,
                adapter_rng=world.adapter_rng,
                writer=writer,
            )
        else:
            outcome = _run_fixed_session(world, writer)
        summary = _summarize(writer.events, cfg, outcome)
        writer.emit(summary)
    if cfg.target_accuracy is None or outcome.reached:
        code = EXIT_OK
    else:
        code = EXIT_NOT_CONVERGED
    return SessionResult(outcome.reached, code, summary, writer.events)


def _summarize(events: list[dict], cfg: SessionConfig,
               outcome: conf_mod.SessionOutcome) -> dict:
    rounds = trace_mod.events_of_kind(events, "round")
    traffic = sum(2 * e["payload_bytes"] * len(e["participants"]) for e in rounds)
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
        "traffic_bytes": traffic,
        "energy_j": energy,
        "cache_hits": hits,
        "cache_recomputes": recomputes,
        "depth_increases": cache_mod.expirations_this_session(events),
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


def best_accuracy(events: list[dict]) -> float:
    evals = trace_mod.events_of_kind(events, "eval")
    return max((e["accuracy"] for e in evals), default=0.0)


def sweep(cfg: SessionConfig, grid: list[tuple[int, int]], out_dir: str,
          reference_accuracy: float | None = None) -> list[dict]:
    """Run fixed-adapter sessions for every (depth, width) on shared seeds.

    The reference accuracy for relative targets defaults to the converged
    accuracy of a full fine-tuning run on the same seed.
    """
    if not grid:
        raise ConfigurationError("sweep grid must be non-empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if reference_accuracy is None:
        ref_cfg = copy.deepcopy(cfg)
        ref_cfg.mode = "full_ft"
        ref_cfg.target_accuracy = None
        ref_result = run_session_config(ref_cfg, str(out / "reference_full_ft.trace.jsonl"))
        reference_accuracy = ref_result.summary["best_accuracy"]
    rows = []
    for depth, width in grid:
        run_cfg = copy.deepcopy(cfg)
        run_cfg.mode = "fixed_adapter"
        run_cfg.fixed_depth = depth
        run_cfg.fixed_width = width
        run_cfg.target_accuracy = None
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
        traffic = sum(2 * e["payload_bytes"] * len(e["participants"]) for e in rounds)
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
