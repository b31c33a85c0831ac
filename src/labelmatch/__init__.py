"""Intent classification as matching: one shared encoder for utterances and
verbalized label names, three fusion heads (none/add/dot), cross-entropy
training, and a finite-difference verification suite."""

from .corpus import (Dataset, DatasetStats, Example, TokenSeq, Vocabulary,
                     build_vocab, dataset_stats, load_dataset, load_verbalizer,
                     save_dataset, tokenize, verbalize_label)
from .encoder import EncoderParams, LabelSet, encode
from .errors import (CheckpointError, DataError, LabelMatchError,
                     TrainingError, VerificationError)
from .fusion import FusionHead, score_dot
from .nncore import GradCheckReport, ParamTensor, cross_entropy, finite_diff_check, softmax
from .trainer import (Model, TrainConfig, TrainHistory, adam_step, build_model,
                      evaluate, init_params, load_checkpoint, save_checkpoint, train)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
