"""Online depth/width configurator with concurrent sideline trials.

The server trains three global models at once: the current configuration,
a deeper one, and a wider one. Whenever the trial interval elapses on the
emulated clock, the track with the best latest accuracy wins, its weights
become the base of the next three tracks (byte-identical in the shared
prefix), and its configuration becomes the new floor. Configurations only
ever grow, which is what keeps activation-cache expirations bounded by the
model depth.

A trial track is the ``TuningScheme`` it trains plus its model, which
holds the track's latest FedAvg mean between rounds; what a track trains
is stated once, by its scheme. Decisions read the winner's
``scheme.adapter``, and the winner's scheme is the floor the next
dispatch grows from; no other copy of the current shape is kept.
``dispatch`` only ever grows from a current track, a decision's winner or
the one ``session.start_session`` materializes at the start shape; it
materializes nothing fresh itself.

This module holds the decision logic alone: ``dispatch``,
``decide_winner`` and ``evaluate_tracks``. The session loop that applies
it is ``session.step``, which advances one ``session.Session`` value a
round at a time in every mode and keeps the decision clock (the last
decision's time and the trial interval) on it; the fixed baselines never
decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import adapter as adapter_mod
from . import model as model_mod
from .adapter import AdapterConfig, TuningScheme
from .errors import DecisionError
from .model import ModelState
from .tensor_nn import SeededRng

TRACK_CURRENT = "current"
TRACK_DEEPER = "deeper"
TRACK_WIDER = "wider"


@dataclass
class TrialTrack:
    name: str
    scheme: TuningScheme
    # materialized by ``session.start_session`` or derived by ``dispatch``,
    # and kept until the next dispatch; between rounds it holds the latest mean
    model: ModelState = field(repr=False)
    clock: float = 0.0
    accuracy: float | None = None  # the latest evaluation; None before the first


@dataclass
class ConfiguratorParams:
    """The ``configurator`` section of a session config."""

    start_depth: int = 0
    start_width: int = 8
    depth_step: int = 1
    width_step: int = 8  # columns the wider track adds to each adapter's bottleneck
    trial_intvl_s: float | None = None  # None: derived from the first round's time
    intvl_growth: float = 1.0


def _adapter_scheme(depth: int, width: int) -> TuningScheme:
    return TuningScheme("adapter", AdapterConfig(depth, width))


def dispatch(params: ConfiguratorParams, winner: TrialTrack, rng: SeededRng,
             start_clock: float = 0.0) -> list[TrialTrack]:
    """Grow the current/deeper/wider trial tracks from the winner.

    The current track takes the winner's scheme and model, which holds the
    winner's aggregated mean. The deeper and wider tracks take models
    derived from it, which carry its trained weights byte-identically in
    arrays of their own; only the deeper track's new adapters and the
    ``params.width_step`` new units of the wider track's bottlenecks are
    freshly initialized. Impossible directions (deeper past the model,
    wider at depth 0) are omitted. A session's first tracks grow the same
    way, from the one current track ``session.start_session`` materializes.
    """
    scheme, base = winner.scheme, winner.model
    d, w = scheme.adapter.depth, scheme.adapter.width
    variants = [(TRACK_CURRENT, scheme, base)]
    if d + params.depth_step <= base.spec.num_layers:
        variants.append((TRACK_DEEPER, _adapter_scheme(d + params.depth_step, w),
                         adapter_mod.deepen(base, params.depth_step, rng, scheme.adapter)))
    if d >= 1:
        variants.append((TRACK_WIDER, _adapter_scheme(d, w + params.width_step),
                         adapter_mod.widen(base, params.width_step, rng)))
    return [TrialTrack(name, track_scheme, model, clock=start_clock)
            for name, track_scheme, model in variants]


def decide_winner(tracks: list[TrialTrack]) -> TrialTrack:
    """Track with the highest latest accuracy; ties go to the cheaper config."""
    if not tracks:
        raise DecisionError("no live tracks to decide between")
    for t in tracks:
        if t.accuracy is None:
            raise DecisionError(f"track '{t.name}' has no evaluations yet")
    best_acc = max(t.accuracy for t in tracks)
    contenders = [t for t in tracks if t.accuracy == best_acc]
    return min(contenders, key=lambda t: (t.scheme.adapter.depth, t.scheme.adapter.width))


def evaluate_tracks(tracks: list[TrialTrack], store: model_mod.PrefixStore,
                    test_tokens, test_labels) -> list[float]:
    """Accuracy of every live track on the global test set, in track order.

    Each track is scored on its ``model``, which ``fed.run_round`` left
    holding the track's aggregated mean, and resumes where its scheme
    resumes at its own tuning depth (``TuningScheme.resume_layer``: under
    adapters, the lowest adapter's input). The store first drops every
    resume point none of these tracks resumes from; evaluation then builds
    the test chunks it lacks. A track without a frozen prefix (full
    fine-tuning) runs the plain forward.
    """
    resumes = []
    for track in tracks:
        num_layers = track.model.spec.num_layers
        resumes.append(track.scheme.resume_layer(num_layers, track.scheme.tuning_depth(num_layers)))
    store.retain({r for r in resumes if r is not None})
    return [model_mod.evaluate(track.model, test_tokens, test_labels, store=store, resume=resume)
            for track, resume in zip(tracks, resumes)]
