"""Config-driven session runner: world building, modes, sweep, report.

A session is a pure function of (config, seed): the synthetic task, the
non-IID partition, the frozen backbone, client selection, and every
training step derive from named substreams of the session seed, so the
emitted trace is byte-identical across runs. A running session is one
``Session`` value, which ``step`` advances a round at a time in every mode.
``start_session`` builds one current track at the mode's start scheme
(``_start_scheme``); ``autofed`` grows its trial tracks from it with the
``configurator.dispatch`` a decision makes, and the fixed baselines train
it alone. Who trains where is decided once, in ``step``: ``assign_groups``
draws each round's clients and gives each live track its group, and
``fed.run_round`` trains the pairs. The configurator's decision logic lives
in ``configurator.py``.

The trace is the session's one record. Its closing summary is a function of
the events before it (``_summary``), and ``report`` derives it again from
those events and refuses a trace whose summary disagrees in any field.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import adapter as adapter_mod
from . import configurator as conf_mod
from . import costmodel
from . import data as data_mod
from . import fed as fed_mod
from . import model as model_mod
from . import trace as trace_mod
from .adapter import AdapterConfig, TuningScheme
from .configurator import ConfiguratorParams, TrialTrack
from .costmodel import BUILTIN_DEVICE_PROFILES, DeviceProfile, NetworkProfile
from .errors import ConfigurationError, SelectionError, TraceParseError
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
    # bool(value), int(value) and float(value) would take "false" as True, 2.9 as 2
    # and "40" as 40
    if hint is bool or isinstance(value, bool):
        _require(hint is bool and isinstance(value, bool), path,
                 f"expected {hint.__name__}, got {value!r}")
        return value
    if hint in (int, float):
        _require(isinstance(value, (int, float)), path, f"expected {hint.__name__}, got {value!r}")
    if hint is int and isinstance(value, float):
        _require(value.is_integer(), path, f"expected int, got {value!r}")
    return hint(value)


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
    _require(0 <= cfg.task.teacher_seed < 2**64, "task.teacher_seed", "must be in [0, 2**64)")
    if cfg.target_accuracy is not None:
        _require(0.0 <= cfg.target_accuracy <= 1.0, "target_accuracy", "must be in [0, 1]")
    _require(cfg.num_clients >= 1, "num_clients", "must be >= 1")
    _require(cfg.participants_per_group >= 1, "participants_per_group", "must be >= 1")
    _require(cfg.participants_total() <= cfg.num_clients, "participants_per_group",
             f"3N={cfg.participants_total()} exceeds num_clients={cfg.num_clients}")
    _require(cfg.batch_size >= 1, "batch_size", "must be >= 1")
    _require(cfg.local_epochs >= 1, "local_epochs", "must be >= 1")
    _require(math.isfinite(cfg.learning_rate) and cfg.learning_rate >= 0, "learning_rate",
             "must be finite and >= 0")
    _require(math.isfinite(cfg.noniid_concentration) and cfg.noniid_concentration > 0,
             "noniid_concentration", "must be finite and > 0")
    _require(cfg.max_rounds >= 1, "max_rounds", "must be >= 1")
    for name, share in cfg.devices.items():
        _require(name in BUILTIN_DEVICE_PROFILES or name in cfg.custom_devices,
                 "devices", f"unknown device profile '{name}'")
        _require(math.isfinite(share) and share >= 0, f"devices.{name}",
                 f"share must be finite and >= 0, got {share}")
    _require(0 < sum(cfg.devices.values()) < math.inf, "devices",
             "shares must have a finite sum > 0")
    for target in cfg.relative_targets:
        _require(math.isfinite(target) and target > 0, "relative_targets",
                 f"every target must be finite and > 0, got {target}")
    if cfg.mode == "fixed_adapter":
        _require(0 <= cfg.fixed_depth <= cfg.model.num_layers, "fixed_depth",
                 f"must be in [0, {cfg.model.num_layers}]")
        _require(cfg.fixed_width >= adapter_mod.MIN_WIDTH, "fixed_width",
                 f"must be >= {adapter_mod.MIN_WIDTH}")
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
        _require(conf.trial_intvl_s is None or conf.trial_intvl_s > 0,
                 "configurator.trial_intvl_s", "must be > 0")
        _require(conf.intvl_growth > 0, "configurator.intvl_growth", "must be > 0")


def load_config(path: str, seed: int | None = None) -> SessionConfig:
    """Parse and validate the YAML config at ``path``; ``seed`` overrides its seed.

    The override is validated with the rest of the document, so an
    out-of-range seed is refused like one written in the file. PyYAML is
    imported here, the one place that parses YAML, so that ``import
    fedtune`` and sessions built by ``config_from_dict`` do not load it (it
    and its compiled ``yaml._yaml`` take about 0.9 MB of RSS).
    """
    import yaml

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

def _start_scheme(cfg: SessionConfig) -> TuningScheme:
    """The scheme of the session's one current track before its first round."""
    conf = cfg.configurator
    if cfg.mode == "autofed":
        return TuningScheme("adapter", AdapterConfig(conf.start_depth, conf.start_width))
    if cfg.mode == "fixed_adapter":
        return TuningScheme("adapter", AdapterConfig(cfg.fixed_depth, cfg.fixed_width))
    if cfg.mode == "full_ft":
        return TuningScheme("full")
    return TuningScheme("freeze", frozen_layers=cfg.freeze_layers)  # layer_freeze


@dataclass
class SessionResult:
    exit_code: int
    summary: dict
    events: list[dict]


@dataclass
class Session:
    """A running session: its world, live tracks, store, dispatch count and decision clock.

    ``store`` holds every frozen-prefix activation on the host: the
    clients' training batches, whose caches are ledgers that refer into it,
    and the test set's chunks; the cache watermark they are held at is the
    server's (``fed.ServerState.depth_watermark``). ``iteration`` counts
    the dispatches after the first. ``t_trial`` is the last decision's
    clock and ``trial_intvl`` the emulated seconds until the next one
    (None until the first round derives it); only ``autofed`` reads them.
    Nothing else carries across rounds, so ``copy.deepcopy`` forks a
    session: the fork writes the trace the session itself would have
    written.
    """

    world: World
    tracks: list[TrialTrack]
    store: model_mod.PrefixStore
    iteration: int = 0
    t_trial: float = 0.0
    trial_intvl: float | None = None


def start_session(world: World) -> Session:
    """The session before its first round.

    Every mode materializes one current track at its start scheme; in
    ``autofed``, ``configurator.dispatch`` then grows the trial tracks from
    it, as from a decision's winner.
    """
    cfg = world.config
    scheme = _start_scheme(cfg)
    model = adapter_mod.materialize(world.backbone, scheme, rng=world.adapter_rng)
    tracks = [TrialTrack(conf_mod.TRACK_CURRENT, scheme, model)]
    if cfg.mode == "autofed":
        tracks = conf_mod.dispatch(cfg.configurator, tracks[0], world.adapter_rng)
    return Session(world, tracks, model_mod.PrefixStore(world.backbone),
                   trial_intvl=cfg.configurator.trial_intvl_s)


def _emit_dispatch(writer, session: Session, clock: float) -> None:
    num_layers = session.world.backbone.spec.num_layers
    tracks = [{"track": t.name, "depth": t.scheme.tuning_depth(num_layers),
               "width": t.scheme.adapter.width if t.scheme.adapter else 0} for t in session.tracks]
    writer.emit({"evt": "dispatch", "iteration": session.iteration, "clock": clock,
                 "base_depth": tracks[0]["depth"], "base_width": tracks[0]["width"],
                 "tracks": tracks})


def assign_groups(world: World, tracks: list[TrialTrack]) -> list[tuple[TrialTrack, list[int]]]:
    """Who trains which track this round: each track in order, paired with its group.

    The round's 3N clients are a uniform sample of distinct ids, the first
    3N of one permutation of the sorted population drawn from
    ``server.rng_select``; more than the population is a SelectionError.
    The selection is cut into consecutive groups, one per track, as even
    as they can be, and the remainder goes to the first group.
    """
    total, ids = world.config.participants_total(), sorted(world.server.registry)
    if total > len(ids):
        raise SelectionError(f"cannot select {total} clients from a population of {len(ids)}")
    selected = [ids[int(i)] for i in world.server.rng_select.permutation(len(ids))[:total]]
    assignments, cursor = [], 0
    for position, track in enumerate(tracks):
        size = total // len(tracks) + (0 if position else total % len(tracks))
        assignments.append((track, selected[cursor:cursor + size]))
        cursor += size
    return assignments


def step(session: Session, writer) -> bool:
    """One round of every live track, their evaluation, then a decision if one is due.

    Who trains where is decided here, once: ``assign_groups`` draws the
    round's clients and splits them into one group per track, and
    ``fed.run_round`` trains those pairs. Each track advances its own
    emulated clock and is scored on the global test set. Returns True
    once some track meets the target accuracy. In ``autofed`` a decision
    is due when the current track's clock is more than
    ``session.trial_intvl`` past the last decision's (``t_trial``);
    ``configurator.dispatch`` then replaces the tracks. Nothing is
    totalled here: ``writer`` receives every event the summary derives from.
    """
    world, cfg = session.world, session.world.config
    rounds = fed_mod.run_round(
        world.server, assign_groups(world, session.tracks),
        epochs=cfg.local_epochs, lr=cfg.learning_rate,
        store=session.store if cfg.cache_enabled else None)
    for event in rounds:
        writer.emit(event)
    accuracies = conf_mod.evaluate_tracks(session.tracks, session.store,
                                          world.test_tokens, world.test_labels)
    for track, acc in zip(session.tracks, accuracies):
        track.accuracy = acc
        writer.emit({"evt": "eval", "round": world.server.round_index, "track": track.name,
                     "clock": track.clock, "accuracy": acc})
    if cfg.target_accuracy is not None and max(accuracies) >= cfg.target_accuracy:
        return True
    if cfg.mode != "autofed":
        return False
    if session.trial_intvl is None:
        # derive the interval so the start-up track gets a few rounds
        # between decisions at the bundled profiles
        session.trial_intvl = 3.0 * rounds[0]["round_seconds"]
    if session.tracks[0].clock - session.t_trial <= session.trial_intvl:
        return False
    winner = conf_mod.decide_winner(session.tracks)
    new, clock = winner.scheme.adapter, max(t.clock for t in session.tracks)
    writer.emit({"evt": "decision", "round": world.server.round_index, "clock": clock,
                 "winner": winner.name, "accuracies": {t.name: t.accuracy for t in session.tracks},
                 "new_depth": new.depth, "new_width": new.width})
    session.iteration += 1
    session.t_trial = clock
    session.trial_intvl *= cfg.configurator.intvl_growth
    session.tracks = conf_mod.dispatch(cfg.configurator, winner, world.adapter_rng,
                                       start_clock=clock)
    _emit_dispatch(writer, session, clock)
    return False


def run_session_config(cfg: SessionConfig, trace_path: str) -> SessionResult:
    """Execute one session and stream its trace to ``trace_path``.

    The trace opens before the world is built, so an unusable path fails at
    once. First, one untouched 16 MiB block is allocated and freed, so that
    the session's heap does not depend on what the process did before.
    glibc's malloc maps a block above its mmap threshold (128 KiB at start)
    when no free part of the heap can hold it, and freeing a mapped block of
    at most 32 MiB raises the threshold to that block's size and the heap's
    trim threshold to twice that (mallopt(3), ``M_MMAP_THRESHOLD``). No
    free part of the session's heap holds 16 MiB, so the block is mapped
    whatever ran before. With the trim threshold at 32 MiB, the pages a
    training step frees at the top of the heap stay mapped for the next
    step instead of being handed back and faulted in anew. A 1 MiB block
    left that to heap layout: a ``full_ft`` session at seed 2 took 2.9k
    minor faults, or 138k once the training graph freed its values sooner.
    """
    # mallopt(3), M_MMAP_THRESHOLD: freeing a mapped block raises both thresholds
    guard = np.empty(16 << 20, dtype=np.uint8)
    del guard
    with trace_mod.TraceWriter(trace_path) as writer:
        world = build_world(cfg)
        writer.emit({"evt": "session", "version": trace_mod.TRACE_VERSION,
                     "config": cfg.to_dict()})
        session = start_session(world)
        _emit_dispatch(writer, session, 0.0)
        for _ in range(cfg.max_rounds):
            if step(session, writer):
                break
        summary = _summary(writer.events)
        writer.emit(summary)
    missed = cfg.target_accuracy is not None and not summary["reached"]
    return SessionResult(EXIT_NOT_CONVERGED if missed else EXIT_OK, summary, writer.events)


def _earliest_clock(events: list[dict], threshold: float) -> float | None:
    """Earliest clock of an ``eval`` event at or above ``threshold``; None if there is none."""
    return min((e["clock"] for e in trace_mod.events_of_kind(events, "eval")
                if e["accuracy"] >= threshold), default=None)


def _summary(events: list[dict]) -> dict:
    """The summary event that closes a trace whose earlier events are ``events``.

    ``mode``, ``seed`` and ``target_accuracy`` come from the leading
    ``session`` event's config (``config_from_dict``); every other field is
    derived from the ``round``, ``eval`` and ``dispatch`` events. The target
    is reached when some evaluation meets it, at the earliest such clock.
    """
    cfg = config_from_dict(events[0]["config"])
    rounds = trace_mod.events_of_kind(events, "round")
    evals = trace_mod.events_of_kind(events, "eval")
    target = cfg.target_accuracy
    time_to_target = None if target is None else _earliest_clock(events, target)
    configs_visited = []
    for e in trace_mod.events_of_kind(events, "dispatch"):
        shape = [e["base_depth"], e["base_width"]]
        if configs_visited[-1:] != [shape]:
            configs_visited.append(shape)
    return {
        "evt": "summary",
        "mode": cfg.mode,
        "seed": cfg.seed,
        "reached": time_to_target is not None,
        "target_accuracy": target,
        "time_to_target": time_to_target,
        "rounds": rounds[-1]["round"] if rounds else 0,
        "best_accuracy": max((e["accuracy"] for e in evals), default=0.0),
        "traffic_bytes": sum(costmodel.traffic_bytes(e["payload_bytes"], len(e["participants"]))
                             for e in rounds),
        "energy_j": sum(e["energy_j"] for e in rounds),
        "cache_hits": sum(e["cache_hits"] for e in rounds),
        "cache_recomputes": sum(e["cache_recomputes"] for e in rounds),
        "depth_increases": sum(b["max_depth"] > a["max_depth"]
                               for a, b in zip(rounds, rounds[1:])),
        "configs_visited": configs_visited,
    }


# ---------------------------------------------------------------------------
# post-hoc analysis
# ---------------------------------------------------------------------------

def _check_reference_accuracy(reference_accuracy: float) -> None:
    if not 0 < reference_accuracy <= 1:  # NaN fails too
        raise ConfigurationError(
            f"reference_accuracy must be in (0, 1], got {reference_accuracy}")


def time_to_accuracy(events: list[dict], relative_target: float,
                     reference_accuracy: float) -> float | None:
    """Earliest clock at which any track's evaluation met the relative target."""
    _check_reference_accuracy(reference_accuracy)
    return _earliest_clock(events, relative_target * reference_accuracy)


def sweep(cfg: SessionConfig, grid: list[tuple[int, int]], out_dir: str,
          reference_accuracy: float | None = None) -> list[dict]:
    """Run fixed-adapter sessions for every (depth, width) on shared seeds.

    The reference accuracy for relative targets defaults to the converged
    accuracy of a full fine-tuning run on the same seed. Every grid point,
    and a given reference accuracy, is validated before any session runs.
    """
    if not grid:
        raise ConfigurationError("sweep grid must be non-empty")
    if reference_accuracy is not None:
        _check_reference_accuracy(reference_accuracy)
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


def _check_round(path: str, e: dict) -> None:
    """Refuse a round whose client energies are not its participants' or do not sum to its own.

    ``energy_j`` is their sum in ``participants`` order, not in the trace's sorted key order.
    """
    energies, group = e["client_energy"], e["participants"]
    where = f"{path}: round {e['round']} of track '{e['track']}'"
    if sorted(energies) != sorted(str(cid) for cid in group):
        raise TraceParseError(
            f"{where}: client_energy keys {sorted(energies)} are not its participants {group}")
    if sum(energies[str(cid)] for cid in group) != e["energy_j"]:
        raise TraceParseError(f"{where}: energy_j {e['energy_j']!r} is not the sum of its "
                              f"client energies in participants order")


def report(paths: list[str]) -> dict:
    """Totals across traces, each derived from its events and checked against its summary.

    ``trace.read_trace`` checks every event against the trace format. A
    config that ``config_from_dict`` refuses, a summary field that differs
    from the one ``_summary`` derives from the events before it, and a
    round that fails ``_check_round`` are TraceParseErrors naming the field.
    """
    sessions = []
    totals = {"traffic_bytes": 0, "energy_j": 0.0, "rounds": 0}
    for path in paths:
        *body, summary = trace_mod.read_trace(path)
        try:
            derived = _summary(body)
        except ConfigurationError as err:
            raise TraceParseError(f"{path}: session field 'config': {err}") from None
        per_client: dict[str, dict] = {}
        for e in trace_mod.events_of_kind(body, "round"):
            _check_round(path, e)
            for cid, joules in e["client_energy"].items():
                entry = per_client.setdefault(cid, {"traffic_bytes": 0, "energy_j": 0.0,
                                                    "rounds": 0})
                entry["traffic_bytes"] += costmodel.traffic_bytes(e["payload_bytes"], 1)
                entry["energy_j"] += joules
                entry["rounds"] += 1
        if wrong := next((key for key in derived if summary[key] != derived[key]), None):
            raise TraceParseError(f"{path}: summary field '{wrong}' disagrees with the events "
                                  f"(events {derived[wrong]!r} vs summary {summary[wrong]!r})")
        sessions.append({"path": path, **{k: v for k, v in derived.items() if k != "evt"},
                         "per_client": per_client})
        for key in totals:
            totals[key] += derived[key]
    return {"sessions": sessions, "totals": totals}
