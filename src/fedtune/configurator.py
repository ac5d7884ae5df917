"""Online depth/width configurator with concurrent sideline trials.

The server trains three global models at once: the current configuration,
a deeper one, and a wider one. Whenever the trial interval elapses on the
emulated clock, the track with the best latest accuracy wins, its weights
become the base of the next three tracks (byte-identical in the shared
prefix), and its configuration becomes the new floor. Configurations only
ever grow, which is what keeps activation-cache expirations bounded by the
model depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import adapter as adapter_mod
from . import fed as fed_mod
from . import model as model_mod
from .adapter import AdapterConfig, AdapterPayload, TuningScheme
from .errors import DecisionError
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
    rounds_done: int = 0
    acc_history: list[tuple[float, float]] = field(default_factory=list)

    @property
    def config(self) -> AdapterConfig:
        return self.payload.scheme.adapter

    def latest_accuracy(self) -> float:
        if not self.acc_history:
            raise DecisionError(f"track '{self.name}' has no evaluations yet")
        return self.acc_history[-1][1]


@dataclass
class ConfiguratorState:
    start_depth: int
    start_width: int
    depth_step: int
    width_step: int
    trial_intvl: float | None  # None: derived from the first round's time
    intvl_growth: float = 1.0
    iteration: int = 0
    t_trial: float = 0.0
    base_depth: int = 0
    base_width: int = 0

    def __post_init__(self):
        self.base_depth = self.start_depth
        self.base_width = self.start_width


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
    d, w, step = state.base_depth, state.base_width, state.width_step
    scheme = _adapter_scheme(d, w, step)
    if winner_payload is None:
        base_model = adapter_mod.materialize(backbone, scheme, payload=None, rng=rng)
    else:
        base_model = adapter_mod.materialize(backbone, scheme, winner_payload)
    current = adapter_mod.extract_payload(base_model, scheme)

    tracks = [TrialTrack(TRACK_CURRENT, current, clock=start_clock)]
    if d + state.depth_step <= num_layers:
        deeper_model = adapter_mod.deepen(base_model, state.depth_step, rng)
        deeper_scheme = _adapter_scheme(d + state.depth_step, w, step)
        tracks.append(TrialTrack(
            TRACK_DEEPER, adapter_mod.extract_payload(deeper_model, deeper_scheme),
            clock=start_clock))
    if d >= 1:
        wider_model = adapter_mod.widen(base_model, state.width_step, rng)
        wider_scheme = _adapter_scheme(d, w + state.width_step, step)
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
                    store: model_mod.EvalStore, test_tokens, test_labels) -> list[float]:
    """Accuracy of every live track on the global test set, in track order.

    The store keeps exactly the boundaries these tracks resume from; a
    track without a frozen prefix (full fine-tuning) runs the plain forward.
    """
    num_layers = backbone.spec.num_layers
    boundaries = [t.payload.scheme.boundary_layer(num_layers) for t in tracks]
    store.retain({b for b in boundaries if b is not None})
    accuracies = []
    for track, boundary in zip(tracks, boundaries):
        model = adapter_mod.materialize(backbone, track.payload.scheme, track.payload)
        accuracies.append(model_mod.evaluate(model, test_tokens, test_labels,
                                             store=store, boundary=boundary))
    return accuracies


@dataclass
class SessionOutcome:
    reached: bool
    time_to_target: float | None
    rounds: int
    best_accuracy: float
    configs_visited: list[tuple[int, int]]


def run_session(
    state: ConfiguratorState,
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
    writer=None,
) -> SessionOutcome:
    """Run the trial loop until the target accuracy or the round budget.

    Every round advances all live tracks once (each on its own emulated
    clock), then the server scores each track on the global test set with
    ``evaluate_tracks``; decisions happen when the current track's clock
    passes the trial interval. Two frozen-prefix stores are at work: each
    client's ``ActivationCache`` serves its training batches, and one
    server-side ``model.EvalStore`` per session serves evaluation, rebuilt
    from the embedding at most D times because depths only grow.
    """
    def emit(evt: dict) -> None:
        if writer is not None:
            writer.emit(evt)

    def emit_dispatch(tracks: list[TrialTrack], clock: float) -> None:
        emit({
            "evt": "dispatch",
            "iteration": state.iteration,
            "clock": clock,
            "base_depth": state.base_depth,
            "base_width": state.base_width,
            "tracks": [
                {"track": t.name, "depth": t.config.depth, "width": t.config.width}
                for t in tracks
            ],
        })

    store = model_mod.EvalStore(backbone, test_tokens)
    tracks = dispatch(state, None, backbone, adapter_rng, start_clock=0.0)
    state.t_trial = 0.0
    emit_dispatch(tracks, 0.0)
    configs_visited = [(state.base_depth, state.base_width)]
    best_acc = 0.0
    reached = False
    time_to_target: float | None = None
    rounds = 0

    while rounds < max_rounds and not reached:
        report = fed_mod.run_round(
            server, tracks, participants_total,
            backbone=backbone, epochs=epochs, lr=lr, cache_enabled=cache_enabled)
        rounds = report.round_index
        for track, stat in zip(tracks, report.tracks):
            emit({
                "evt": "round", "round": report.round_index, "track": stat.track,
                "max_depth": report.max_depth, "clock": track.clock,
                "round_seconds": stat.round_seconds,
                "payload_bytes": stat.payload_bytes,
                "participants": stat.participants,
                "energy_j": stat.energy_joules,
                "client_energy": stat.client_energy,
                "cache_hits": stat.cache_hits,
                "cache_recomputes": stat.cache_recomputes,
                "train_samples": stat.train_samples,
            })
        if state.trial_intvl is None:
            # derive the interval so the start-up track gets a few rounds
            # between decisions at the bundled profiles
            state.trial_intvl = 3.0 * report.tracks[0].round_seconds

        accuracies = evaluate_tracks(tracks, backbone, store, test_tokens, test_labels)
        for track, acc in zip(tracks, accuracies):
            track.acc_history.append((track.clock, acc))
            emit({"evt": "eval", "round": report.round_index, "track": track.name,
                  "clock": track.clock, "accuracy": acc})
            if acc > best_acc:
                best_acc = acc
            if target_accuracy is not None and acc >= target_accuracy and not reached:
                reached = True
                time_to_target = track.clock
        if reached:
            break

        current = tracks[0]
        if should_decide(state, current.clock):
            winner = decide_winner(tracks)
            decision_clock = max(t.clock for t in tracks)
            emit({
                "evt": "decision", "round": rounds, "clock": decision_clock,
                "winner": winner.name,
                "accuracies": {t.name: t.latest_accuracy() for t in tracks},
                "new_depth": winner.config.depth, "new_width": winner.config.width,
            })
            state.iteration += 1
            state.base_depth = winner.config.depth
            state.base_width = winner.config.width
            state.t_trial = decision_clock
            state.trial_intvl *= state.intvl_growth
            if configs_visited[-1] != (state.base_depth, state.base_width):
                configs_visited.append((state.base_depth, state.base_width))
            tracks = dispatch(state, winner.payload, backbone, adapter_rng,
                              start_clock=decision_clock)
            emit_dispatch(tracks, decision_clock)

    return SessionOutcome(reached, time_to_target, rounds, best_acc, configs_visited)
