"""Maximum-likelihood training with Adam, early stopping on dev perplexity,
and optional pretraining followed by fine-tuning.

The loss for one dialogue is the summed negative log-likelihood over the
positions its model scores; parameters are updated per sequence (batch
size 1), shuffled each epoch under the configured seed, so runs are
bit-reproducible.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .metrics import tallies
from .numeric import clip_global_norm, lanes, zero_grads


@dataclass
class TrainConfig:
    lr: float = 1e-3
    max_epochs: int = 50
    patience: int = 5
    clip: float = 5.0
    seed: int = 0
    eval_interval: int = 1  # epochs between dev evaluations

    def __post_init__(self):
        for name in ("max_epochs", "patience", "eval_interval"):
            if getattr(self, name) <= 0:
                raise DataError(f"config field {name} must be positive")
        if not (0 <= self.lr < np.inf and self.clip > 0):
            raise DataError("learning rate must be finite and >= 0, and clip > 0")


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Entries per adam_update block: the two scratch rows of one block stay in
# cache, where full-length rows would cost memory traffic and resident size.
ADAM_BLOCK = 32768


class AdamState:
    """First/second moment arenas laid out like the parameters, the step
    counter, and a scratch vector, so that a step allocates no arrays: its
    ``rows`` are two rows of one block per lane (``numeric.lanes``), and the
    whole vector is long enough to be ``clip_global_norm``'s scratch, one
    row of the largest array per lane."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m, self.v = zero_grads(params), zero_grads(params)
        block = min(ADAM_BLOCK, self.m.flat.size)
        self.scratch = np.empty(max([4 * block] + [2 * p.size for p in params.values()]))
        self.rows = self.scratch[:4 * block].reshape(2, 2, block)


def adam_update(state, params, grads, scale):
    """One bias-corrected Adam step over the arena ``params``, in place.

    The moments round like m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    in that order. The step folds the bias corrections into two scalars
    (Kingma & Ba, section 2): p -= lr_t m / (sqrt(v) + eps_t), with
    lr_t = lr sqrt(1 - b2^t) / (1 - b1^t) and eps_t = eps sqrt(1 - b2^t),
    one divide and one sqrt per entry. Every operation is elementwise, so
    running them block by block over the flat vectors, the blocks shared
    between two lanes, changes no bit.
    ``grads`` must be finite, as ``clip_global_norm`` finds them; a block
    first multiplies its gradients in place by the clip's ``scale`` (None
    for no clipping), the bytes that a pass of its own over ``grads`` forms.
    """
    state.t += 1
    root = math.sqrt(1.0 - BETA2 ** state.t)
    lr_t, eps_t = state.lr * root / (1.0 - BETA1 ** state.t), EPS * root

    def block(i, lane):
        blk = slice(i * ADAM_BLOCK, (i + 1) * ADAM_BLOCK)
        p, g, m, v = params.flat[blk], grads.flat[blk], state.m.flat[blk], state.v.flat[blk]
        step, denom = state.rows[lane, :, :p.size]
        if scale is not None:
            g *= scale
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=step)
        v *= BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v += step
        np.sqrt(v, out=denom)
        denom += eps_t
        np.multiply(m, lr_t, out=step)
        step /= denom
        p -= step

    lanes(block, -(-params.flat.size // ADAM_BLOCK))
    return params


@dataclass
class LogEntry:
    epoch: int
    seen: int
    train_loss: float
    dev_ppl: float
    best: bool

    def format_line(self):
        return f"{self.epoch}, {self.seen}, {self.train_loss!r}, {self.dev_ppl!r}, {int(self.best)}"


@dataclass
class TrainResult:
    model: object
    log: list = field(default_factory=list)

    @property
    def best_dev_ppl(self):
        return min(e.dev_ppl for e in self.log)


def train(model, train_dialogues, dev_dialogues, config, log_lines=None):
    """Train ``model`` in place; its parameters end at the best-dev checkpoint.

    Returns the model and the log. ``log_lines``, when given, receives one
    formatted line per dev evaluation as it happens.
    """
    if not train_dialogues or not dev_dialogues:
        raise DataError("training needs non-empty train and dev splits")
    train_examples = [model.make_example(dlg) for dlg in train_dialogues]
    dev_examples = [model.make_example(dlg) for dlg in dev_dialogues]

    adam = AdamState(model.params, lr=config.lr)
    grads = zero_grads(model.params)  # one arena for the run, zero-filled every step
    shuffle_rng = np.random.default_rng([config.seed, 1])
    log = []
    best_ppl = np.inf
    best_flat = None
    evals_since_best = 0
    seen = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_examples))
        epoch_loss = 0.0
        for idx in order:
            try:
                loss, _ = model.example_loss_and_grads(train_examples[idx], grads)
                _, scale = clip_global_norm(grads, config.clip, adam.scratch)
                adam_update(adam, model.params, grads, scale)
            except NumericalError as e:
                raise NumericalError(
                    f"epoch {epoch}, train sequence {idx}: {e}"
                ) from e
            epoch_loss += loss
            seen += 1
        if epoch % config.eval_interval != 0 and epoch != config.max_epochs:
            continue
        dev_ppl = tallies(model, dev_examples)[0].rates()[0]
        improved = dev_ppl < best_ppl
        if improved:
            best_ppl = dev_ppl
            best_flat = model.params.flat.copy()
            evals_since_best = 0
        else:
            evals_since_best += 1
        entry = LogEntry(epoch, seen, epoch_loss / len(train_examples), dev_ppl, improved)
        log.append(entry)
        if log_lines is not None:
            log_lines.append(entry.format_line())
        if evals_since_best >= config.patience:
            break
    if best_flat is not None:
        model.params.flat[:] = best_flat
    return TrainResult(model=model, log=log)


def pretrain_finetune(model, pretrain_splits, target_splits, config, log_lines=None):
    """Train on the pretraining corpus, then fine-tune on the target corpus.

    ``pretrain_splits`` and ``target_splits`` are (train, dev) pairs that
    share the target vocabulary (out-of-vocabulary pretraining tokens are
    already mapped to <unk> at load time). An empty pretraining corpus
    degenerates to plain training on the target. The fine-tuning phase
    starts from the pretrained checkpoint with a fresh Adam state.
    """
    if pretrain_splits[0]:
        train(model, *pretrain_splits, config, log_lines)
    return train(model, *target_splits, config, log_lines)


__all__ = [
    "AdamState",
    "LogEntry",
    "TrainConfig",
    "TrainResult",
    "adam_update",
    "pretrain_finetune",
    "train",
]
