"""Online depth/width configurator with concurrent sideline trials.

The server trains three global models at once: the current configuration,
a deeper one, and a wider one. Whenever the trial interval elapses on the
emulated clock, the track with the best latest accuracy wins, its weights
become the base of the next three tracks (byte-identical in the shared
prefix), and its configuration becomes the new floor. Configurations only
ever grow, which is what keeps activation-cache expirations bounded by the
model depth.

``run_session`` is the one session loop of every mode. The fixed baselines
(a fixed adapter, full fine-tuning, layer freezing) are this loop with one
``current`` track and no configurator state, so they never decide.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import adapter as adapter_mod
from . import fed as fed_mod
from . import model as model_mod
from .adapter import AdapterConfig, AdapterPayload, TuningScheme
from .errors import DecisionError, ProtocolError
from .fed import ServerState
from .model import ModelState
from .tensor_nn import SeededRng

TRACK_CURRENT = "current"
TRACK_DEEPER = "deeper"
TRACK_WIDER = "wider"


@dataclass
class TrialTrack:
    name: str
    payload: AdapterPayload
    clock: float = 0.0
    acc_history: list[tuple[float, float]] = field(default_factory=list)
    # the payload materialized on the backbone by the track's first
    # ``fed.run_track_round``; between rounds it holds ``payload``
    model: ModelState | None = field(default=None, repr=False)

    @property
    def config(self) -> AdapterConfig:
        return self.payload.scheme.adapter

    def depth_width(self, num_layers: int) -> tuple[int, int]:
        """Tuning depth and adapter width (0 without adapters) of the scheme."""
        scheme = self.payload.scheme
        return scheme.tuning_depth(num_layers), (scheme.adapter.width if scheme.adapter else 0)

    def latest_accuracy(self) -> float:
        if not self.acc_history:
            raise DecisionError(f"track '{self.name}' has no evaluations yet")
        return self.acc_history[-1][1]


@dataclass
class ConfiguratorParams:
    """The ``configurator`` section of a session config."""

    start_depth: int = 0
    start_width: int = 8
    depth_step: int = 1
    width_step: int = 8
    trial_intvl_s: float | None = None  # None: derived from the first round's time
    intvl_growth: float = 1.0


@dataclass
class ConfiguratorState:
    """Search progress from ``params``: the current floor and trial interval."""

    params: ConfiguratorParams
    t_trial: float = 0.0
    trial_intvl: float | None = field(init=False)
    base_depth: int = field(init=False)
    base_width: int = field(init=False)

    def __post_init__(self):
        self.trial_intvl = self.params.trial_intvl_s
        self.base_depth = self.params.start_depth
        self.base_width = self.params.start_width


def _adapter_scheme(depth: int, width: int, step: int) -> TuningScheme:
    return TuningScheme("adapter", AdapterConfig(depth, width, step))


def dispatch(
    state: ConfiguratorState,
    winner_payload: AdapterPayload | None,
    backbone: ModelState,
    rng: SeededRng,
    start_clock: float = 0.0,
) -> list[TrialTrack]:
    """Derive the current/deeper/wider trial payloads from the winner.

    The winner's trained weights are carried over byte-identically; only
    the newly added stacks are freshly initialized. Impossible directions
    (deeper past the model, wider at depth 0) are omitted.
    """
    num_layers = backbone.spec.num_layers
    d, w, step = state.base_depth, state.base_width, state.params.width_step
    scheme = _adapter_scheme(d, w, step)
    if winner_payload is None:
        base_model = adapter_mod.materialize(backbone, scheme, payload=None, rng=rng)
    else:
        base_model = adapter_mod.materialize(backbone, scheme, winner_payload)
    current = adapter_mod.extract_payload(base_model, scheme)

    tracks = [TrialTrack(TRACK_CURRENT, current, clock=start_clock)]
    if d + state.params.depth_step <= num_layers:
        deeper_model = adapter_mod.deepen(base_model, state.params.depth_step, rng,
                                          scheme.adapter)
        deeper_scheme = _adapter_scheme(d + state.params.depth_step, w, step)
        tracks.append(TrialTrack(
            TRACK_DEEPER, adapter_mod.extract_payload(deeper_model, deeper_scheme),
            clock=start_clock))
    if d >= 1:
        wider_model = adapter_mod.widen(base_model, step, rng)
        wider_scheme = _adapter_scheme(d, w + step, step)
        tracks.append(TrialTrack(
            TRACK_WIDER, adapter_mod.extract_payload(wider_model, wider_scheme),
            clock=start_clock))
    return tracks


def should_decide(state: ConfiguratorState, now: float) -> bool:
    """True when the trial interval has elapsed on the decision clock."""
    if state.trial_intvl is None:
        return False
    return now - state.t_trial > state.trial_intvl


def config_cost_key(config: AdapterConfig) -> tuple[int, int]:
    return (config.depth, config.width)


def decide_winner(tracks: list[TrialTrack]) -> TrialTrack:
    """Track with the highest latest accuracy; ties go to the cheaper config."""
    if not tracks:
        raise DecisionError("no live tracks to decide between")
    scored = [(t.latest_accuracy(), t) for t in tracks]
    best_acc = max(acc for acc, _ in scored)
    contenders = [t for acc, t in scored if acc == best_acc]
    return min(contenders, key=lambda t: config_cost_key(t.config))


def evaluate_tracks(tracks: list[TrialTrack], backbone: ModelState,
                    store: model_mod.PrefixStore, test_tokens, test_labels) -> list[float]:
    """Accuracy of every live track on the global test set, in track order.

    Each track is scored on its ``model``, which ``fed.run_track_round``
    left holding the track's aggregated payload. The store first drops every
    resume point none of these tracks resumes from (each resumes at the
    lowest adapter's input, see ``model.resume_layer``); evaluation then
    builds the test chunks it lacks. A track without a frozen prefix (full
    fine-tuning) runs the plain forward.
    """
    num_layers = backbone.spec.num_layers
    resumes = []
    for track in tracks:
        if track.model is None:
            raise ProtocolError(f"track '{track.name}' has not trained a round yet")
        boundary = track.payload.scheme.boundary_layer(num_layers)
        resumes.append(None if boundary is None else model_mod.resume_layer(track.model, boundary))
    store.retain({r for r in resumes if r is not None})
    return [model_mod.evaluate(track.model, test_tokens, test_labels, store=store, resume=resume)
            for track, resume in zip(tracks, resumes)]


@dataclass
class SessionOutcome:
    reached: bool
    time_to_target: float | None
    rounds: int
    best_accuracy: float
    configs_visited: list[tuple[int, int]]


def _emit_dispatch(writer, iteration: int, clock: float, tracks: list[TrialTrack],
                   num_layers: int) -> None:
    shapes = [t.depth_width(num_layers) for t in tracks]
    writer.emit({
        "evt": "dispatch",
        "iteration": iteration,
        "clock": clock,
        "base_depth": shapes[0][0],
        "base_width": shapes[0][1],
        "tracks": [{"track": t.name, "depth": d, "width": w}
                   for t, (d, w) in zip(tracks, shapes)],
    })


def run_session(
    state: ConfiguratorState | None,
    tracks: list[TrialTrack],
    server: ServerState,
    backbone: ModelState,
    *,
    test_tokens,
    test_labels,
    participants_total: int,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    target_accuracy: float | None,
    max_rounds: int,
    adapter_rng: SeededRng,
    writer,
) -> SessionOutcome:
    """Run ``tracks`` until the target accuracy or the round budget.

    Every round advances all live tracks once (each on its own emulated
    clock), then the server scores each track on the global test set with
    ``evaluate_tracks``. With a configurator ``state``, ``tracks`` is its
    first ``dispatch`` and decisions happen when the current track's clock
    passes the trial interval; without one, the tracks are never replaced.
    One ``model.PrefixStore`` per session holds every frozen-prefix
    activation on the host: the clients' training batches and the test
    set's chunks. Each client's ``ActivationCache`` is a ledger that refers
    into it and decides, as the emulated device would, which batches hit
    and which are recomputed. Each chunk is built from the embedding at
    most D times because depths only grow.
    """
    num_layers = backbone.spec.num_layers
    store = model_mod.PrefixStore(backbone)
    iteration = 0
    _emit_dispatch(writer, iteration, 0.0, tracks, num_layers)
    configs_visited = [tracks[0].depth_width(num_layers)]
    best_acc = 0.0
    reached = False
    time_to_target: float | None = None
    rounds = 0

    while rounds < max_rounds and not reached:
        report = fed_mod.run_round(
            server, tracks, participants_total,
            backbone=backbone, epochs=epochs, lr=lr, cache_enabled=cache_enabled,
            store=store)
        rounds = report.round_index
        for track, stat in zip(tracks, report.tracks):
            writer.emit({"evt": "round", "round": report.round_index,
                         "max_depth": report.max_depth, "clock": track.clock,
                         **asdict(stat)})

        accuracies = evaluate_tracks(tracks, backbone, store, test_tokens, test_labels)
        for track, acc in zip(tracks, accuracies):
            track.acc_history.append((track.clock, acc))
            writer.emit({"evt": "eval", "round": report.round_index, "track": track.name,
                         "clock": track.clock, "accuracy": acc})
            if acc > best_acc:
                best_acc = acc
            if target_accuracy is not None and acc >= target_accuracy and not reached:
                reached = True
                time_to_target = track.clock
        if reached or state is None:
            continue

        if state.trial_intvl is None:
            # derive the interval so the start-up track gets a few rounds
            # between decisions at the bundled profiles
            state.trial_intvl = 3.0 * report.tracks[0].round_seconds
        current = tracks[0]
        if should_decide(state, current.clock):
            winner = decide_winner(tracks)
            decision_clock = max(t.clock for t in tracks)
            writer.emit({
                "evt": "decision", "round": rounds, "clock": decision_clock,
                "winner": winner.name,
                "accuracies": {t.name: t.latest_accuracy() for t in tracks},
                "new_depth": winner.config.depth, "new_width": winner.config.width,
            })
            iteration += 1
            state.base_depth = winner.config.depth
            state.base_width = winner.config.width
            state.t_trial = decision_clock
            state.trial_intvl *= state.params.intvl_growth
            if configs_visited[-1] != (state.base_depth, state.base_width):
                configs_visited.append((state.base_depth, state.base_width))
            tracks = dispatch(state, winner.payload, backbone, adapter_rng,
                              start_clock=decision_clock)
            _emit_dispatch(writer, iteration, decision_clock, tracks, num_layers)

    return SessionOutcome(reached, time_to_target, rounds, best_acc, configs_visited)
