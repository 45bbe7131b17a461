"""Max-margin training for the CRF (structured perceptron with margin).

For every training graph we run loss-augmented MAP inference under the
current weights and take a subgradient step on the structured hinge loss:
features of the gold assignment are rewarded, features of the margin
violator penalised.  Averaged weights (the usual polyak-style trick,
implemented with lazy timestamps) give the stability of an SVM at
perceptron cost -- appropriate here because the paper treats the learning
engine as an off-the-shelf component and varies only the representation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...resilience import faults
from ...resilience.checkpoint import CheckpointMismatchError, TrainerCheckpoint
from .graph import CrfGraph
from .inference import map_inference
from .model import CrfModel, PairKey, UnaryKey


@dataclass
class TrainingConfig:
    """Knobs of the trainer; defaults work for corpus-scale experiments."""

    epochs: int = 5
    learning_rate: float = 1.0
    #: Multiplicative decay applied once per epoch (L2-style shrinkage).
    weight_decay: float = 1.0
    #: Shuffle graphs between epochs.
    shuffle: bool = True
    seed: int = 13
    #: ICM beam during training inference.
    beam: int = 32
    max_sweeps: int = 4
    use_unary: bool = True
    #: Average weights over updates (recommended).
    average: bool = True


@dataclass
class TrainingStats:
    """What happened during training (reported by benchmarks)."""

    epochs: int = 0
    updates: int = 0
    graphs: int = 0
    train_seconds: float = 0.0
    parameters: int = 0


class CrfTrainer:
    """Trains a :class:`CrfModel` from gold-labelled graphs."""

    def __init__(self, config: Optional[TrainingConfig] = None) -> None:
        self.config = config or TrainingConfig()

    def train(
        self,
        graphs: Sequence[CrfGraph],
        checkpoint: Optional[TrainerCheckpoint] = None,
    ) -> Tuple[CrfModel, TrainingStats]:
        cfg = self.config
        # The model shares the graphs' feature space: factor ids in the
        # graphs index directly into the model's weight keys.  A corpus
        # that knows its own space (a streaming ShardedCorpus, which
        # decodes every graph against one merged space) skips the
        # per-graph identity scan -- scanning would force a full decode
        # pass just to verify what the corpus guarantees by construction.
        space = getattr(graphs, "space", None)
        if space is None:
            space = graphs[0].space if len(graphs) else None
            for graph in graphs:
                if graph.space is not space:
                    raise ValueError(
                        "all training graphs must share one FeatureSpace; got "
                        "graphs built by extractors with different spaces"
                    )
        model = CrfModel(use_unary=cfg.use_unary, space=space)
        stats = TrainingStats(graphs=len(graphs))
        started = time.perf_counter()

        # Pass 0: populate the candidate index from gold labels.
        for graph in graphs:
            for node in graph.unknowns:
                model.observe_training_node(node, graph)

        # Averaging accumulators (lazy timestamp trick).
        pair_totals: Dict[PairKey, float] = {}
        pair_stamp: Dict[PairKey, int] = {}
        unary_totals: Dict[UnaryKey, float] = {}
        unary_stamp: Dict[UnaryKey, int] = {}
        step = 0

        def bump_pair(key: PairKey, delta: float) -> None:
            if cfg.average:
                pair_totals[key] = pair_totals.get(key, 0.0) + model.pair_weights[
                    key
                ] * (step - pair_stamp.get(key, 0))
                pair_stamp[key] = step
            model.pair_weights[key] += delta
            compiled.set_pair(key, model.pair_weights[key])

        def bump_unary(key: UnaryKey, delta: float) -> None:
            if cfg.average:
                unary_totals[key] = unary_totals.get(key, 0.0) + model.unary_weights[
                    key
                ] * (step - unary_stamp.get(key, 0))
                unary_stamp[key] = step
            model.unary_weights[key] += delta
            compiled.set_unary(key, model.unary_weights[key])

        rng = random.Random(cfg.seed)
        order = list(range(len(graphs)))

        # Resume: the checkpoint snapshot is the complete mid-training
        # state -- weights, lazy-average accumulators, the shuffle RNG
        # *and* the order list it permutes in place (epoch N+1's
        # permutation depends on epoch N's) -- restored in saved
        # insertion order so finishing the remaining epochs writes a
        # model bit-identical to the uninterrupted run.
        start_epoch = 0
        if checkpoint is not None and checkpoint.state is not None:
            state = checkpoint.state
            if state.get("kind") != "crf":
                raise CheckpointMismatchError(
                    f"checkpoint {checkpoint.path!r} holds "
                    f"{state.get('kind')!r} trainer state, not 'crf'"
                )
            step = int(state["step"])
            stats.updates = int(state["updates"])
            stats.epochs = start_epoch = int(state["epochs_done"])
            saved_rng = state["rng"]
            rng.setstate((saved_rng[0], tuple(saved_rng[1]), saved_rng[2]))
            order = [int(i) for i in state["order"]]
            for l, r, o, w in state["pair_weights"]:
                model.pair_weights[(l, r, o)] = w
            for l, r, w in state["unary_weights"]:
                model.unary_weights[(l, r)] = w
            for l, r, o, v in state["pair_totals"]:
                pair_totals[(l, r, o)] = v
            for l, r, o, v in state["pair_stamp"]:
                pair_stamp[(l, r, o)] = int(v)
            for l, r, v in state["unary_totals"]:
                unary_totals[(l, r)] = v
            for l, r, v in state["unary_stamp"]:
                unary_stamp[(l, r)] = int(v)

        def snapshot(epochs_done: int) -> dict:
            rng_state = rng.getstate()
            return {
                "kind": "crf",
                "epochs_done": epochs_done,
                "step": step,
                "updates": stats.updates,
                "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
                "order": list(order),
                "pair_weights": [
                    [k[0], k[1], k[2], w] for k, w in model.pair_weights.items()
                ],
                "unary_weights": [
                    [k[0], k[1], w] for k, w in model.unary_weights.items()
                ],
                "pair_totals": [
                    [k[0], k[1], k[2], v] for k, v in pair_totals.items()
                ],
                "pair_stamp": [
                    [k[0], k[1], k[2], v] for k, v in pair_stamp.items()
                ],
                "unary_totals": [[k[0], k[1], v] for k, v in unary_totals.items()],
                "unary_stamp": [[k[0], k[1], v] for k, v in unary_stamp.items()],
            }

        # Vectorised scoring pack; built after pass 0 / checkpoint restore
        # (when the vocab and any restored weights are in place) and kept
        # in sync by write-through from the bump closures, so each
        # loss-augmented inference call reuses the pack instead of
        # re-freezing the whole model.
        compiled = model.compile()

        for epoch in range(start_epoch, cfg.epochs):
            if cfg.shuffle:
                rng.shuffle(order)
            for graph_index in order:
                graph = graphs[graph_index]
                if not len(graph):
                    continue
                gold = graph.gold_assignment()
                step += 1
                predicted = map_inference(
                    compiled,
                    graph,
                    max_sweeps=cfg.max_sweeps,
                    beam=cfg.beam,
                    loss_augmented=True,
                    gold=gold,
                )
                if predicted == gold:
                    continue
                stats.updates += 1
                lr = cfg.learning_rate
                self._apply_update(
                    model, graph, gold, predicted, lr, bump_pair, bump_unary, cfg
                )
            if cfg.weight_decay < 1.0:
                model.l2_decay(cfg.weight_decay)
                # Bulk mutation: repack lazily at the next inference.
                compiled.invalidate()
            stats.epochs += 1
            if checkpoint is not None:
                checkpoint.save_epoch(epoch + 1, snapshot(epoch + 1))
            faults.fire("train.epoch")

        if cfg.average and step > 0:
            # Flush accumulators and replace weights with their averages.
            for key, weight in list(model.pair_weights.items()):
                total = pair_totals.get(key, 0.0) + weight * (
                    step - pair_stamp.get(key, 0)
                )
                model.pair_weights[key] = total / step
            for key, weight in list(model.unary_weights.items()):
                total = unary_totals.get(key, 0.0) + weight * (
                    step - unary_stamp.get(key, 0)
                )
                model.unary_weights[key] = total / step

        stats.train_seconds = time.perf_counter() - started
        stats.parameters = model.num_parameters()
        return model, stats

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_update(
        model: CrfModel,
        graph: CrfGraph,
        gold: Sequence[str],
        predicted: Sequence[str],
        lr: float,
        bump_pair,
        bump_unary,
        cfg: TrainingConfig,
    ) -> None:
        """Subgradient step: phi(gold) - phi(predicted), on interned ids."""
        intern = model.label_id
        gold_ids = [intern(label) for label in gold]
        pred_ids = [intern(label) for label in predicted]
        for i, node in enumerate(graph.unknowns):
            for factor in node.known:
                gold_key = (gold_ids[i], factor.rel, factor.label)
                pred_key = (pred_ids[i], factor.rel, factor.label)
                if gold_key != pred_key:
                    bump_pair(gold_key, lr)
                    bump_pair(pred_key, -lr)
            for edge in node.edges:
                gold_key = (gold_ids[i], edge.rel, gold_ids[edge.other])
                pred_key = (pred_ids[i], edge.rel, pred_ids[edge.other])
                if gold_key != pred_key:
                    bump_pair(gold_key, lr)
                    bump_pair(pred_key, -lr)
            if cfg.use_unary:
                for rel in node.unary:
                    gold_key = (gold_ids[i], rel)
                    pred_key = (pred_ids[i], rel)
                    if gold_key != pred_key:
                        bump_unary(gold_key, lr)
                        bump_unary(pred_key, -lr)
